package kernel

import (
	"reflect"
	"slices"
	"testing"
)

// snapshotExempt lists the Kernel fields Snapshot deliberately does not
// capture under their own name, each with the reason.
var snapshotExempt = map[string]string{
	"opts":           "immutable after New",
	"uuidMu":         "guards uuidRNG; holds no state",
	"initNS":         "pointer fixed by New; the set's state is captured through nsSets",
	"rootCG":         "pointer fixed by New; Restore re-reads it from cgroups",
	"taskList":       "captured as tasks (pid order) and rebuilt by Restore",
	"cgroupList":     "captured as cgroups (creation order) and rebuilt by Restore",
	"irqs":           "PerCPU rows are views into jitterRows, which is captured",
	"softirqs":       "PerCPU rows are views into jitterRows, which is captured",
	"softnetPackets": "a view into jitterRows, which is captured",
	"idleStates":     "usage/time rows are views into idleRows, which is captured",
	"rowScales":      "per-tick scratch, rewritten before every use",
	"idleScaleA":     "per-tick scratch, rewritten before every use",
	"idleScaleB":     "per-tick scratch, rewritten before every use",
	"perCoreScratch": "per-tick scratch, rewritten before every use",
	"sharesScratch":  "per-tick scratch, rewritten before every use",
	"quotaDemand":    "per-tick scratch, cleared before every use",
	"quotaOut":       "per-tick scratch, cleared before every use",
	"taskDemand":     "per-tick mirror of taskList, regathered at the top of Tick",
	"taskQF":         "per-tick mirror of taskList, regathered at the top of Tick",
}

// uncaptured returns the fields of kType that stateType has no field of
// the same name for and exempt does not list.
func uncaptured(kType, stateType reflect.Type, exempt map[string]string) []string {
	var out []string
	for i := 0; i < kType.NumField(); i++ {
		name := kType.Field(i).Name
		_, captured := stateType.FieldByName(name)
		_, exempted := exempt[name]
		if !captured && !exempted {
			out = append(out, name)
		}
	}
	return out
}

// TestKernelSnapshotCapturesEveryField fails when a field is added to
// Kernel without a place in Snapshot (so Restore would silently let it
// escape) or an exemption saying why it needs none.
func TestKernelSnapshotCapturesEveryField(t *testing.T) {
	kType, snapType := reflect.TypeFor[Kernel](), reflect.TypeFor[Snapshot]()
	if missing := uncaptured(kType, snapType, snapshotExempt); len(missing) > 0 {
		t.Errorf("Kernel fields not captured by Snapshot: %v", missing)
	}
	for name := range snapshotExempt {
		if _, ok := kType.FieldByName(name); !ok {
			t.Errorf("exemption %q names no Kernel field", name)
		}
	}
}

// TestKernelSnapshotGuardFires is the guard's own test: a struct with one
// field more than Kernel must be reported, and Kernel itself without its
// exemptions must report exactly the exempted fields.
func TestKernelSnapshotGuardFires(t *testing.T) {
	type grown struct {
		Kernel
		escaped uint64
	}
	snap := reflect.TypeFor[Snapshot]()
	if got := uncaptured(reflect.TypeFor[grown](), snap, map[string]string{"Kernel": ""}); !slices.Equal(got, []string{"escaped"}) {
		t.Errorf("guard reported %v for a struct with one uncaptured field, want [escaped]", got)
	}
	got := uncaptured(reflect.TypeFor[Kernel](), snap, nil)
	var want []string
	for name := range snapshotExempt {
		want = append(want, name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("guard without exemptions reported %v, want %v", got, want)
	}
}

// TestTickAllocatesNothing pins Kernel.Tick at zero allocations on a warm
// 24-core kernel with a container task, a host task and a CFS quota in
// force — among others, the softnet row's one-element scale slice must
// stay on the stack.
func TestTickAllocatesNothing(t *testing.T) {
	k := New(Options{Hostname: "node-a", Seed: 3, Cores: 24})
	cg := "/docker/c1"
	ns := k.NewNSSet("c1", cg)
	k.Cgroup(cg).QuotaCores = 0.5
	demand, rates := busyTask()
	k.Spawn("worker", ns, cg, 2*demand, rates)
	k.Spawn("daemon", k.InitNS(), "/", demand, rates)
	tick(k, 5)
	if n := testing.AllocsPerRun(100, func() { k.Tick(k.Now()+0.5, 0.5) }); n != 0 {
		t.Fatalf("Tick allocates %g times per call", n)
	}
}
