package cloud

// Byte-identity suite for the sharded tick pipeline: the same world, built
// and ticked twice, must be indistinguishable byte for byte — across
// chaos-off and chaos-armed observation surfaces, and across undefended and
// defended fleets. The fingerprint deliberately
// mixes every class of observable: raw kernel/meter state, host-context
// pseudo-file renders, container-context renders through the masking
// policy (and the power namespace when defended), breaker state, and
// billing, so a divergence anywhere in the shard phase shows up here.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/workload"
)

// shardFingerprintPaths are read per server for the fingerprint — a mix of
// hot counters, padded tables, and namespaced files.
var shardFingerprintPaths = []string{
	"/proc/uptime",
	"/proc/stat",
	"/proc/loadavg",
	"/proc/meminfo",
	"/proc/interrupts",
	"/proc/sched_debug",
	"/sys/class/powercap/intel-rapl:0/energy_uj",
	"/sys/fs/cgroup/cpuacct/cpuacct.usage",
}

// worldFingerprint builds a two-rack datacenter, places tenant load, runs
// it for a while (interleaving container reads mid-run so the read path —
// including any chaos injectors — executes in a fixed serial order), and
// renders everything observable into one string.
func worldFingerprint(t *testing.T, defended bool, spec chaos.Spec) string {
	t.Helper()
	dc := New(Config{
		Racks:          2,
		ServersPerRack: 3,
		CoresPerServer: 4,
		Seed:           1362,
		Defended:       defended,
		Chaos:          spec,
		Benign:         BenignConfig{SharedFlash: true},
	})

	_, c1, err := dc.Launch("acme", "web", 1)
	if err != nil {
		t.Fatalf("launch web: %v", err)
	}
	c1.Run(workload.Prime, 1)
	_, c2, err := dc.Launch("evil", "probe", 0.5)
	if err != nil {
		t.Fatalf("launch probe: %v", err)
	}
	c2.Run(workload.IdleLoop, 0.25)

	var b strings.Builder
	readAll := func(tag string) {
		// Container-context reads: through policy, namespaces, chaos and
		// (when defended) the power namespace. Chaos makes some reads fail
		// transiently — the error text is part of the fingerprint.
		for _, c := range []struct {
			name string
			rd   interface {
				ReadFile(string) (string, error)
			}
		}{{"web", c1}, {"probe", c2}} {
			for _, p := range shardFingerprintPaths {
				s, err := c.rd.ReadFile(p)
				fmt.Fprintf(&b, "%s %s %s err=%v\n%s", tag, c.name, p, err, s)
			}
		}
	}

	// Interleave ticking with reads: 3 windows of 40 s at dt=1 s.
	for w := 0; w < 3; w++ {
		dc.Clock.Run(float64(w+1)*40, 1)
		readAll(fmt.Sprintf("t=%d", (w+1)*40))
	}

	// Raw per-server state in rack order.
	for _, s := range dc.Servers() {
		fmt.Fprintf(&b, "%s down=%v wall=%.9f reserved=%.3f\n",
			s.Name, s.Down, s.Kernel.Meter().WallPower(), s.ReservedCores())
		host := s.HostMount()
		for _, p := range shardFingerprintPaths {
			hs, err := host.Read(p)
			fmt.Fprintf(&b, "host %s %s err=%v\n%s", s.Name, p, err, hs)
		}
	}
	for _, r := range dc.Racks {
		fmt.Fprintf(&b, "%s power=%.9f tripped=%v\n", r.Name, r.Power(), r.Breaker.Tripped())
	}
	fmt.Fprintf(&b, "bill acme=%.9f evil=%.9f\n",
		dc.Billing().TenantBill("acme"), dc.Billing().TenantBill("evil"))
	return b.String()
}

func TestShardedTickDeterministic(t *testing.T) {
	cases := []struct {
		name     string
		defended bool
		spec     chaos.Spec
	}{
		{"undefended/chaos-off", false, chaos.Spec{}},
		{"undefended/chaos-armed", false, chaos.Spec{Rate: 0.10, Seed: 99}},
		{"defended/chaos-off", true, chaos.Spec{}},
		{"defended/chaos-armed", true, chaos.Spec{Rate: 0.10, Seed: 99}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			first := worldFingerprint(t, tc.defended, tc.spec)
			if again := worldFingerprint(t, tc.defended, tc.spec); again != first {
				t.Fatalf("rebuilt world's fingerprint diverges\nfirst difference near: %q",
					firstLineDiff(first, again))
			}
		})
	}
}

// firstLineDiff returns the first line where a and b differ.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}
