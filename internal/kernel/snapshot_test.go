package kernel

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/snapshot/snapshottest"
)

// snapshotExempt lists the Kernel fields outside kernelState, the state
// struct Snapshot copies, each with the reason it needs no capture there.
var snapshotExempt = map[string]string{
	"opts":           "immutable after New",
	"uuidMu":         "guards uuidRNG; holds no state",
	"meter":          "component pointer fixed by New; its state is captured as Snapshot.meter",
	"freq":           "component pointer fixed by New; its state is captured as Snapshot.freq",
	"perf":           "component pointer fixed by New; its state is captured as Snapshot.perf",
	"initNS":         "pointer fixed by New; the set is captured through the nsSets table",
	"rootCG":         "pointer fixed by New; the cgroup is captured through the cgroups table",
	"irqs":           "names and rates are fixed by New; PerCPU rows are views into jitterRows",
	"softirqs":       "names and rates are fixed by New; PerCPU rows are views into jitterRows",
	"softnetPackets": "a view into jitterRows",
	"idleStates":     "names are fixed by New; usage/time rows are views into idleRows",
	"epochs":         "atomics, which a struct copy may not copy; captured as Snapshot.epochs",
	"tickScratch":    "per-tick scratch and mirrors, rewritten before every use",
}

// TestKernelSnapshotCapturesEveryField fails when a field is added to
// Kernel outside kernelState (so Restore would silently let it escape)
// without an exemption saying why it needs no capture, or when an
// exemption names no field.
func TestKernelSnapshotCapturesEveryField(t *testing.T) {
	if stray := snapshottest.Stray(reflect.TypeFor[Kernel](), "kernelState", snapshotExempt); len(stray) > 0 {
		t.Errorf("Kernel fields outside kernelState and not exempt: %v", stray)
	}
}

// TestKernelSnapshotGuardFires is the guard's own test: a struct with one
// field more than Kernel must be reported.
func TestKernelSnapshotGuardFires(t *testing.T) {
	type grown struct {
		Kernel
		escaped uint64
	}
	if got := snapshottest.Stray(reflect.TypeFor[grown](), "kernelState", snapshotExempt); !slices.Equal(got, []string{"escaped"}) {
		t.Errorf("guard reported %v for a Kernel with one uncaptured field, want [escaped]", got)
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

// TestKernelSnapshotSharesNothing checks that a capture and the live
// kernel share no slice or map, right after Snapshot and after a Restore
// that followed more ticks, so a Snapshot or Restore that lets them share
// one fails here even where no later tick or render would show it.
func TestKernelSnapshotSharesNothing(t *testing.T) {
	k := New(Options{Hostname: "node-a", Seed: 5, Cores: 8})
	cg := "/docker/c1"
	ns := k.NewNSSet("c1", cg)
	demand, rates := busyTask()
	task := k.Spawn("worker", ns, cg, demand, rates)
	task.Pinned = []int{1, 2}
	k.AddFileLock(task, "WRITE", 77)
	k.Cgroup(cg).IfPrioMap = map[string]int{"eth0": 3}
	tick(k, 3)
	s := k.Snapshot()
	for _, stage := range []string{"Snapshot", "Restore"} {
		if stage == "Restore" {
			tick(k, 3)
			k.Restore(s)
		}
		var shared []string
		for _, p := range [][2]any{{k.kernelState, s.state}, {nil, s.tasks}, {nil, s.cgroups}, {nil, s.nsSets}} {
			shared = append(shared, snapshottest.Shared(p[0], p[1])...)
		}
		if len(shared) > 0 {
			t.Errorf("after %s the capture shares memory with the live kernel: %v", stage, shared)
		}
	}
}
