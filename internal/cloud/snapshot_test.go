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
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/container"
	"repro/internal/pseudofs"
	"repro/internal/snapshot/snapshottest"
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
	if shared := worldShares(a.dc, snap); len(shared) > 0 {
		return "", fmt.Errorf("the capture shares memory with the live world: %v", shared)
	}
	savedLive := append([]*container.Container(nil), a.live...)
	a.apply(ops, pre, len(ops))
	a.dc.Restore(snap)
	if shared := worldShares(a.dc, snap); len(shared) > 0 {
		return "", fmt.Errorf("after Restore the capture shares memory with the live world: %v", shared)
	}
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

	// The replay mutated everything the restore handed back, so a
	// capture sharing a slice or map with the live world shows here.
	a.dc.Restore(snap)
	a.live = append(a.live[:0], savedLive...)
	if fp3 := a.fingerprint(); fp3 != fpA {
		return "", fmt.Errorf("restore after the replay diverges from the first restore\nfirst difference near: %s",
			firstLineDiff(fpA, fp3))
	}
	return fpA2, nil
}

// worldShares lists the slices and maps through which a capture shares
// memory with the cloud-level state of the live world; each component
// below the cloud layer checks its own.
func worldShares(dc *Datacenter, s *WorldState) []string {
	out := append(snapshottest.Shared(dc.billing.billingState, s.billing), snapshottest.Shared(nil, s.meters)...)
	for i, srv := range dc.Servers() {
		out = append(out, snapshottest.Shared(srv.serverState, s.servers[i].s)...)
	}
	return out
}

// TestSnapshotGuards fails when a field is added to a cloud type outside
// its state struct without an exemption saying why WorldState needs no
// copy of it; each guard also checks that it fires on one extra field.
func TestSnapshotGuards(t *testing.T) {
	const (
		component  = "a component with its own snapshot inside WorldState"
		structural = "fixed when the world is built"
	)
	for _, g := range []struct {
		typ, grown reflect.Type
		state      string
		exempt     map[string]string
	}{
		{reflect.TypeFor[Datacenter](), reflect.TypeFor[struct {
			Datacenter
			escaped int
		}](), "datacenterState", map[string]string{
			"Clock": component, "billing": component, "flash": component,
			"Racks": structural, "cfg": structural,
		}},
		{reflect.TypeFor[Server](), reflect.TypeFor[struct {
			Server
			escaped int
		}](), "serverState", map[string]string{
			"Kernel": component, "FS": component, "Runtime": component,
			"Benign": component, "PowerNS": component,
			"Name": structural, "Rack": structural,
		}},
		{reflect.TypeFor[Breaker](), reflect.TypeFor[struct {
			Breaker
			escaped int
		}](), "breakerState", map[string]string{
			"RatedW": structural, "MagneticFactor": structural, "ThermalCapacity": structural,
		}},
		{reflect.TypeFor[BenignLoad](), reflect.TypeFor[struct {
			BenignLoad
			escaped int
		}](), "benignState", map[string]string{
			"cfg": structural, "srv": structural, "task": structural,
			"mixRates": structural, "phase": structural, "shared": structural,
		}},
		{reflect.TypeFor[FlashDriver](), reflect.TypeFor[struct {
			FlashDriver
			escaped int
		}](), "flashState", map[string]string{"cfg": structural}},
		{reflect.TypeFor[Billing](), reflect.TypeFor[struct {
			Billing
			escaped int
		}](), "billingState", map[string]string{"pricing": structural}},
	} {
		for _, f := range snapshottest.Check(g.typ, g.grown, g.state, g.exempt) {
			t.Error(f)
		}
	}
}
