// Package perfcount models the Linux perf_event subsystem at the granularity
// the paper's defense needs: per-cgroup accounting of retired instructions,
// CPU cycles, cache misses/references, and branch misses/references.
//
// The power-based namespace (internal/powerns) creates one accounting group
// per container — the paper's "perf_event cgroup" with owner TASK_TOMBSTONE —
// and reads accumulated counters on every virtualized RAPL read. The
// UnixBench overhead reproduction (Table III) additionally uses this
// package's context-switch cost model: switching the CPU between tasks of
// *different* perf cgroups requires saving/restoring counter state, which is
// the mechanism the paper blames for the 61.5% pipe-based context-switch
// overhead at one parallel copy (inter-cgroup switches) collapsing to 1.6%
// at eight copies (mostly intra-cgroup switches).
package perfcount

import "fmt"

// Counters is a set of accumulated hardware event counts. Counts are held as
// float64 because the simulator integrates fractional expected counts over
// continuous time steps; consumers that expose them through pseudo-files
// truncate to integers at the presentation layer.
type Counters struct {
	Instructions float64 // retired instructions
	Cycles       float64 // unhalted core cycles
	CacheMisses  float64 // LLC misses
	CacheRefs    float64 // LLC references
	BranchMisses float64 // mispredicted branches
	BranchRefs   float64 // retired branches
}

// Add accumulates d into c.
func (c *Counters) Add(d Counters) {
	c.Instructions += d.Instructions
	c.Cycles += d.Cycles
	c.CacheMisses += d.CacheMisses
	c.CacheRefs += d.CacheRefs
	c.BranchMisses += d.BranchMisses
	c.BranchRefs += d.BranchRefs
}

// Sub returns c - prev, the delta between two snapshots of an accumulating
// counter set.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Instructions: c.Instructions - prev.Instructions,
		Cycles:       c.Cycles - prev.Cycles,
		CacheMisses:  c.CacheMisses - prev.CacheMisses,
		CacheRefs:    c.CacheRefs - prev.CacheRefs,
		BranchMisses: c.BranchMisses - prev.BranchMisses,
		BranchRefs:   c.BranchRefs - prev.BranchRefs,
	}
}

// CacheMissRate returns CM/C, the per-cycle cache miss rate the paper feeds
// into the core power model (Formula 2). It is 0 when no cycles elapsed.
func (c Counters) CacheMissRate() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.CacheMisses / c.Cycles
}

// BranchMissRate returns BM/C, the per-cycle branch miss rate of Formula 2.
func (c Counters) BranchMissRate() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.BranchMisses / c.Cycles
}

// Rates is a per-second event rate vector; it is the microarchitectural
// signature of a running workload.
type Rates struct {
	Instructions float64
	Cycles       float64
	CacheMisses  float64
	CacheRefs    float64
	BranchMisses float64
	BranchRefs   float64
}

// Scale converts rates into counts accumulated over dt seconds.
func (r Rates) Scale(dt float64) Counters {
	return Counters{
		Instructions: r.Instructions * dt,
		Cycles:       r.Cycles * dt,
		CacheMisses:  r.CacheMisses * dt,
		CacheRefs:    r.CacheRefs * dt,
		BranchMisses: r.BranchMisses * dt,
		BranchRefs:   r.BranchRefs * dt,
	}
}

// Plus returns the element-wise sum of two rate vectors, used to aggregate
// the activity of several tasks sharing a cgroup or host.
func (r Rates) Plus(o Rates) Rates {
	return Rates{
		Instructions: r.Instructions + o.Instructions,
		Cycles:       r.Cycles + o.Cycles,
		CacheMisses:  r.CacheMisses + o.CacheMisses,
		CacheRefs:    r.CacheRefs + o.CacheRefs,
		BranchMisses: r.BranchMisses + o.BranchMisses,
		BranchRefs:   r.BranchRefs + o.BranchRefs,
	}
}

// Times returns the rate vector scaled by k, used to model duty cycles and
// core-share throttling.
func (r Rates) Times(k float64) Rates {
	return Rates{
		Instructions: r.Instructions * k,
		Cycles:       r.Cycles * k,
		CacheMisses:  r.CacheMisses * k,
		CacheRefs:    r.CacheRefs * k,
		BranchMisses: r.BranchMisses * k,
		BranchRefs:   r.BranchRefs * k,
	}
}

// DefaultSwitchCost is the modeled CPU time, in seconds, of one
// inter-cgroup context switch while perf accounting is enabled: the kernel
// must disable, save, restore, and re-enable the event set. The value is
// calibrated so the UnixBench pipe-based context-switch benchmark reproduces
// the paper's Table III overhead shape.
const DefaultSwitchCost = 2.6e-6

// Monitor is the per-host perf_event accounting state. The zero value is an
// enabled monitor with no groups; use NewMonitor for an explicit constructor.
type Monitor struct{ monitorState }

// monitorState is a Monitor's mutable state: all of it.
type monitorState struct {
	groups     map[string]*group
	disabled   bool
	switchCost float64

	// InterSwitches and IntraSwitches count observed context switches by
	// whether they crossed a perf-cgroup boundary; the Table III harness
	// reads them to report where overhead came from.
	InterSwitches uint64
	IntraSwitches uint64
}

type group struct {
	counters Counters
	enabled  bool
}

// NewMonitor returns an enabled Monitor with the default context-switch
// cost model.
func NewMonitor() *Monitor {
	return &Monitor{monitorState{switchCost: DefaultSwitchCost}}
}

// SetSwitchCost overrides the per-inter-cgroup-switch cost in seconds.
func (m *Monitor) SetSwitchCost(s float64) { m.switchCost = s }

// Disable turns off all accounting; Account becomes a no-op and context
// switches are free. This models the unmodified kernel of Table III's
// "Original" column.
func (m *Monitor) Disable() { m.disabled = true }

// Enable re-enables accounting.
func (m *Monitor) Enable() { m.disabled = false }

// Enabled reports whether accounting is active.
func (m *Monitor) Enabled() bool { return !m.disabled }

// CreateGroup registers a perf accounting group (one per container in the
// power-based namespace). Creating an existing group resets its counters,
// mirroring a namespace being torn down and recreated.
func (m *Monitor) CreateGroup(name string) {
	if m.groups == nil {
		m.groups = make(map[string]*group)
	}
	m.groups[name] = &group{enabled: true}
}

// RemoveGroup deletes a group and its accumulated counters.
func (m *Monitor) RemoveGroup(name string) {
	delete(m.groups, name)
}

// Account charges the event deltas to the named group. Unknown groups are
// ignored (the host may run tasks outside any power namespace), as is
// accounting while the monitor is disabled.
func (m *Monitor) Account(name string, d Counters) {
	if m.disabled {
		return
	}
	g, ok := m.groups[name]
	if !ok || !g.enabled {
		return
	}
	g.counters.Add(d)
}

// Read returns the accumulated counters of the named group. The boolean is
// false if the group does not exist.
func (m *Monitor) Read(name string) (Counters, bool) {
	g, ok := m.groups[name]
	if !ok {
		return Counters{}, false
	}
	return g.counters, true
}

// Groups returns the number of registered groups.
func (m *Monitor) Groups() int { return len(m.groups) }

// ContextSwitch records a context switch between tasks belonging to the two
// named groups and returns the modeled CPU time cost of the switch beyond a
// baseline switch. Intra-group switches and switches with accounting
// disabled cost nothing extra.
func (m *Monitor) ContextSwitch(from, to string) float64 {
	if m.disabled {
		return 0
	}
	if from == to {
		m.IntraSwitches++
		return 0
	}
	m.InterSwitches++
	return m.switchCost
}

// String summarizes the monitor for debugging.
func (m *Monitor) String() string {
	state := "enabled"
	if m.disabled {
		state = "disabled"
	}
	return fmt.Sprintf("perfcount.Monitor{%s, groups=%d, inter=%d, intra=%d}",
		state, len(m.groups), m.InterSwitches, m.IntraSwitches)
}
