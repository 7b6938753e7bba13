package kernel

import (
	"maps"
	"slices"

	"repro/internal/perfcount"
	"repro/internal/power"
	"repro/internal/snapshot"
)

// Snapshot is a capture of one kernel's complete mutable state: a copy of
// kernelState (every accumulator, both RNG positions, the id sequences),
// the epoch counters, the components' states, and the task, cgroup and
// namespace-set tables. Restore rewinds the kernel in place, so precisely
// that every later tick, spawn and render is byte-identical to a fresh
// world driven to the same point. Tasks, cgroups and namespace sets keep
// their pointer identity; those created after the capture are dropped.
// Epoch counters rewind too, so an incremental engine built over the
// kernel before a Restore must be discarded (the world pool in
// internal/experiments builds engines per checkout for this reason).
type Snapshot struct {
	state   kernelState
	epochs  Epochs
	meter   power.MeterState
	freq    power.GovernorState
	perf    *perfcount.MonitorState
	nsSets  snapshot.Table[uint64, NSSet]
	tasks   snapshot.Table[int, Task]
	cgroups snapshot.Table[string, Cgroup]
}

// Snapshot captures the kernel's complete mutable state. The kernel must
// be quiescent (no tick or spawn in flight) — the same single-clock-thread
// contract every other mutating entry point has.
func (k *Kernel) Snapshot() *Snapshot {
	s := &Snapshot{
		state:   k.kernelState,
		epochs:  k.Epochs(),
		meter:   k.meter.Snapshot(),
		freq:    k.freq.Snapshot(),
		perf:    k.perf.Snapshot(),
		nsSets:  snapshot.Capture(k.nsSets, cloneNSSet),
		tasks:   snapshot.Capture(k.tasks, cloneTask),
		cgroups: snapshot.Capture(k.cgroups, cloneCgroup),
	}
	s.state.own(&kernelState{})
	s.state.nsSets, s.state.tasks, s.state.cgroups = nil, nil, nil // captured whole as tables
	return s
}

// Restore rewinds the kernel to the captured state.
func (k *Kernel) Restore(s *Snapshot) {
	st := s.state
	st.own(&k.kernelState)
	st.nsSets = s.nsSets.Restore(k.nsSets, cloneNSSet)
	st.tasks = s.tasks.Restore(k.tasks, cloneTask)
	st.cgroups = s.cgroups.Restore(k.cgroups, cloneCgroup)
	k.uuidMu.Lock()
	k.kernelState = st
	k.uuidMu.Unlock()
	for sub, e := range s.epochs {
		k.epochs[sub].Store(e)
	}
	k.meter.Restore(s.meter)
	k.freq.Restore(s.freq)
	k.perf.Restore(s.perf)
}

// own points st's slices at into's memory, refilled in place, or at fresh
// memory when into is zero, so st shares none with the state it was copied
// from. In place matters: IRQ, SoftIRQ and IdleState rows are views into
// jitterRows and idleRows.
func (st *kernelState) own(into *kernelState) {
	st.taskList = snapshot.Refill(into.taskList, st.taskList)
	st.cgroupList = snapshot.Refill(into.cgroupList, st.cgroupList)
	st.cpu = snapshot.Refill(into.cpu, st.cpu)
	st.newidleCost = snapshot.Refill(into.newidleCost, st.newidleCost)
	st.jitterRows = snapshot.Refill(into.jitterRows, st.jitterRows)
	st.idleRows = snapshot.Refill(into.idleRows, st.idleRows)
	st.ext4Groups = snapshot.Refill(into.ext4Groups, st.ext4Groups)
	st.schedRunNS = snapshot.Refill(into.schedRunNS, st.schedRunNS)
	st.schedWaitNS = snapshot.Refill(into.schedWaitNS, st.schedWaitNS)
	st.timeslices = snapshot.Refill(into.timeslices, st.timeslices)
}

func cloneTask(t *Task) { t.Pinned = slices.Clone(t.Pinned) }

func cloneCgroup(cg *Cgroup) {
	cg.IfPrioMap = maps.Clone(cg.IfPrioMap)
	cg.locks = slices.Clone(cg.locks)
}

func cloneNSSet(ns *NSSet) {
	ns.NetDevs = slices.Clone(ns.NetDevs)
	ns.pidMap = maps.Clone(ns.pidMap)
	ns.shm = slices.Clone(ns.shm)
}
