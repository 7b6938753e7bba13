package cloud

// Differential suite for the copy-on-write world snapshots: a world that is
// captured, mutated arbitrarily, and restored must be byte-for-byte
// indistinguishable — across the FULL pseudo-file surface of every server
// and container, not a sampled path list — from a freshly built world
// driven through the same pre-capture history. The mutation stream is
// pseudo-random but fixed-seed, mixing launches, workload starts and stops,
// policy applies/reverts, signature implants, and irregular tick windows;
// the same suite runs across chaos-off, chaos-armed, and defended worlds,
// with one world and with eight worlds at once, so the snapshot machinery
// is exercised against every state-holder the tick pipeline touches
// (kernel, governor, meter, perf monitor, chaos streams, power namespace,
// billing, breakers) and against worlds that run side by side.
//
// /proc/sys/kernel/random/uuid is deliberately NOT excluded from the
// render: both worlds read it at the same stream positions, so it checks
// that Restore rewinds the uuid RNG exactly. Likewise chaos-armed reads
// advance fault streams per read — identical fingerprints prove those
// rewind too.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/container"
	"repro/internal/pseudofs"
	"repro/internal/workload"
)

// snapWorld pairs a datacenter with the driver-side handle list the op
// stream mutates. The handle list is part of the replayed state: restoring
// the datacenter also restores a saved copy of the list, mirroring how a
// caller of the experiment pool holds container handles across restores.
type snapWorld struct {
	dc   *Datacenter
	live []*container.Container
}

func newSnapWorld(defended bool, spec chaos.Spec) *snapWorld {
	return &snapWorld{dc: New(Config{
		Racks:          1,
		ServersPerRack: 2,
		CoresPerServer: 4,
		Seed:           4242,
		Defended:       defended,
		Chaos:          spec,
		Benign:         BenignConfig{SharedFlash: true},
	})}
}

// apply drives ops[from:to] against the world. Each op consults only its
// own byte and the world's deterministic state, so two worlds fed the same
// window from equal states stay equal.
func (w *snapWorld) apply(ops []byte, from, to int) {
	pick := func(op byte) *container.Container {
		return w.live[int(op>>3)%len(w.live)]
	}
	for i := from; i < to; i++ {
		op := ops[i]
		switch op % 8 {
		case 0:
			if _, c, err := w.dc.Launch(fmt.Sprintf("t%02d", i), fmt.Sprintf("c%02d", i), 0.5); err == nil {
				w.live = append(w.live, c)
			}
		case 1:
			if len(w.live) > 0 {
				pick(op).Run(workload.Prime, 0.5)
			}
		case 2:
			if len(w.live) > 0 {
				pick(op).StopAll()
			}
		case 3:
			if len(w.live) > 0 {
				pick(op).ApplyPolicy("diff", []pseudofs.Rule{
					{Pattern: "/proc/diskstats", Do: pseudofs.Deny},
					{Pattern: "/proc/net/*", Do: pseudofs.Empty},
				})
			}
		case 4:
			if len(w.live) > 0 {
				pick(op).RevertPolicy()
			}
		case 5:
			if len(w.live) > 0 {
				pick(op).PlantTimer(fmt.Sprintf("sig-%d", i))
			}
		case 6:
			w.dc.Clock.Run(w.dc.Clock.Now()+5, 1)
		case 7:
			w.dc.Clock.Run(w.dc.Clock.Now()+0.37, 0.37)
		}
	}
}

// fingerprint renders every registered pseudo-file path of every server
// (host context) and every live container (policied, namespaced, defended
// context), plus the non-file observables a restore must also rewind.
func (w *snapWorld) fingerprint() string {
	var b strings.Builder
	for _, s := range w.dc.Servers() {
		host := s.HostMount()
		for _, p := range host.Paths() {
			v, err := host.Read(p)
			fmt.Fprintf(&b, "host %s %s err=%v\n%s", s.Name, p, err, v)
		}
		fmt.Fprintf(&b, "%s down=%v wall=%.9f reserved=%.3f\n",
			s.Name, s.Down, s.Kernel.Meter().WallPower(), s.ReservedCores())
	}
	for i, c := range w.live {
		for _, p := range c.Mount().Paths() {
			v, err := c.ReadFile(p)
			fmt.Fprintf(&b, "cont %d %s err=%v\n%s", i, p, err, v)
		}
		fmt.Fprintf(&b, "cont %d tasks=%d\n", i, len(c.Tasks()))
	}
	for _, r := range w.dc.Racks {
		fmt.Fprintf(&b, "%s power=%.9f tripped=%v\n", r.Name, r.Power(), r.Breaker.Tripped())
	}
	return b.String()
}

func TestSnapshotRestoreMatchesFreshWorld(t *testing.T) {
	// Fixed-seed random op stream: [0:pre) is shared history, [pre:len)
	// is the discarded mutation window (and later the shared replay).
	rnd := rand.New(rand.NewSource(0x5eed))
	ops := make([]byte, 48)
	rnd.Read(ops)
	const pre = 28

	cases := []struct {
		name     string
		defended bool
		spec     chaos.Spec
	}{
		{"undefended/chaos-off", false, chaos.Spec{}},
		{"undefended/chaos-armed", false, chaos.Spec{Rate: 0.10, Seed: 99}},
		{"defended/chaos-off", true, chaos.Spec{}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// workers is the number of independent worlds driven through
			// the round trip at once: worlds share the pseudo-file layout
			// and the world pool runs them side by side, so every copy
			// must pass and all of them must end on the same bytes.
			for _, workers := range []int{1, 8} {
				workers := workers
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					fps := make([]string, workers)
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for i := range fps {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							fps[i], errs[i] = snapshotRoundTrip(ops, pre, tc.defended, tc.spec)
						}(i)
					}
					wg.Wait()
					for i, err := range errs {
						if err != nil {
							t.Fatalf("world %d: %v", i, err)
						}
						if fps[i] != fps[0] {
							t.Fatalf("world %d ends on different bytes from world 0\nfirst difference near: %s",
								i, firstLineDiff(fps[0], fps[i]))
						}
					}
				})
			}
		})
	}
}

// snapshotRoundTrip runs one capture/mutate/restore world against a fresh
// world built through the shared history ops[:pre], and returns the final
// fingerprint both reach after replaying ops[pre:].
func snapshotRoundTrip(ops []byte, pre int, defended bool, spec chaos.Spec) (string, error) {
	// World A: shared history, capture, junk mutations, rewind.
	a := newSnapWorld(defended, spec)
	a.apply(ops, 0, pre)
	snap := a.dc.Snapshot()
	savedLive := append([]*container.Container(nil), a.live...)
	a.apply(ops, pre, len(ops))
	a.dc.Restore(snap)
	a.live = savedLive
	fpA := a.fingerprint()

	// World B: fresh build through the shared history only.
	b := newSnapWorld(defended, spec)
	b.apply(ops, 0, pre)
	if fpB := b.fingerprint(); fpA != fpB {
		return "", fmt.Errorf("restored world diverges from fresh world\nfirst difference near: %s",
			firstLineDiff(fpB, fpA))
	}

	// The same capture must be restorable again — including
	// rewinding the reads the fingerprint itself performed.
	a.dc.Restore(snap)
	a.live = append(a.live[:0], savedLive...)
	if fp2 := a.fingerprint(); fp2 != fpA {
		return "", fmt.Errorf("second restore diverges from first\nfirst difference near: %s",
			firstLineDiff(fpA, fp2))
	}

	// Replay continues identically after a restore: both
	// worlds now run the once-discarded window for real.
	a.apply(ops, pre, len(ops))
	b.apply(ops, pre, len(ops))
	fpA2, fpB2 := a.fingerprint(), b.fingerprint()
	if fpA2 != fpB2 {
		return "", fmt.Errorf("post-restore replay diverges from fresh replay\nfirst difference near: %s",
			firstLineDiff(fpB2, fpA2))
	}
	return fpA2, nil
}
