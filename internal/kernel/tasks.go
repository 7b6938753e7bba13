package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/perfcount"
)

// Task is a schedulable entity — in this simulation one task stands for a
// process (or a tight group of threads with identical behaviour, such as the
// "4 copies of Prime" the paper runs per container).
type Task struct {
	// HostPID is the globally unique pid; NSPID is the pid inside the
	// task's PID namespace.
	HostPID int
	NSPID   int
	Name    string

	// NS is the namespace set the task runs in; CgroupPath is its cgroup
	// (also the perf accounting group of the power-based namespace).
	NS         *NSSet
	CgroupPath string

	// DemandCores is how many core-equivalents the task wants; Rates is
	// its microarchitectural activity at full speed. Pinned optionally
	// binds the demand to specific cores (the paper's taskset covert
	// channel uses this to heat one core).
	DemandCores float64
	Rates       perfcount.Rates
	Pinned      []int

	// RSSKB is resident memory charged against the host.
	RSSKB uint64

	// HasTimer marks the task as owning an armed hrtimer, which makes it
	// visible in /proc/timer_list — a signature-implant channel.
	HasTimer bool

	StartedAt float64

	// cg caches k.cgroups[CgroupPath] so the per-task accounting in Tick
	// needs no string-keyed map lookup. Spawn sets it; Cgroup/RemoveCgroup
	// keep it in sync with the cgroup table (nil when the cgroup has been
	// removed, matching the old lookup's miss behavior).
	cg *Cgroup
}

// FileLock is one entry of /proc/locks. The leak: the lock table is global,
// so a lock taken inside one container (with a recognizable inode number) is
// visible to every other container.
type FileLock struct {
	ID      int
	Type    string // "POSIX" | "FLOCK"
	Mode    string // "ADVISORY" | "MANDATORY"
	RW      string // "READ" | "WRITE"
	HostPID int
	Inode   uint64
}

// Spawn creates a task in the given namespace set and cgroup and returns it.
// The cgroup is created on demand. Spawn panics on a nil namespace set —
// every task must live somewhere.
func (k *Kernel) Spawn(name string, ns *NSSet, cgroupPath string, demand float64, rates perfcount.Rates) *Task {
	if ns == nil {
		panic("kernel: Spawn with nil namespace set")
	}
	if cgroupPath == "" {
		cgroupPath = "/"
	}
	k.nextPID++
	t := &Task{
		HostPID:     k.nextPID,
		Name:        name,
		NS:          ns,
		CgroupPath:  cgroupPath,
		DemandCores: demand,
		Rates:       rates,
		StartedAt:   k.now,
	}
	t.NSPID = ns.adoptPID(t.HostPID)
	k.tasks[t.HostPID] = t
	// taskList stays in ascending-pid order because nextPID only grows and
	// Exit removes in place.
	k.taskList = append(k.taskList, t)
	k.forksTotal++
	cg, ok := k.cgroups[cgroupPath]
	if !ok {
		cg = &Cgroup{Path: cgroupPath}
		k.cgroups[cgroupPath] = cg
		k.cgroupList = append(k.cgroupList, cg)
	}
	t.cg = cg
	// A new task changes the global task list, fork counters, and charged
	// memory (callers commonly set RSSKB/Pinned/HasTimer on the returned
	// task before the next read — the same mutation burst this bump covers).
	k.bump(MaskSched | MaskMem)
	return t
}

// Exit removes a task and its namespace pid mapping and releases its locks.
func (k *Kernel) Exit(hostPID int) {
	t, ok := k.tasks[hostPID]
	if !ok {
		return
	}
	t.NS.releasePID(hostPID)
	delete(k.tasks, hostPID)
	for i, lt := range k.taskList {
		if lt == t {
			k.taskList = append(k.taskList[:i], k.taskList[i+1:]...)
			break
		}
	}
	if cg := k.cgroups[t.CgroupPath]; cg != nil {
		kept := cg.locks[:0]
		for _, l := range cg.locks {
			if l.HostPID != hostPID {
				kept = append(kept, l)
			}
		}
		cg.locks = kept
	}
	k.bump(MaskSched | MaskMem)
}

// Task returns the task with the given host pid, or nil.
func (k *Kernel) Task(hostPID int) *Task { return k.tasks[hostPID] }

// Tasks returns all host tasks ordered by pid. This is the *global* view —
// what a handler without a PID-namespace check iterates (the sched_debug
// leak). Namespace-respecting consumers should use TasksInNS.
func (k *Kernel) Tasks() []*Task {
	return append([]*Task(nil), k.taskList...)
}

// TasksInNS returns only the tasks visible in the given PID namespace,
// ordered by namespace pid — the correctly containerized view.
func (k *Kernel) TasksInNS(ns *NSSet) []*Task {
	var out []*Task
	for _, t := range k.tasks {
		if _, ok := ns.TranslatePID(t.HostPID); ok && t.NS.ID(PID) == ns.ID(PID) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NSPID < out[j].NSPID })
	return out
}

// NumTasks returns the number of live tasks.
func (k *Kernel) NumTasks() int { return len(k.tasks) }

// Cgroup is one node of the (flattened) cgroup hierarchies. A container is
// represented by one cgroup path shared across the cpuacct, perf_event, and
// net_prio controllers.
type Cgroup struct {
	Path string

	// CPUUsageNS is cpuacct.usage: cumulative nanoseconds of CPU time.
	CPUUsageNS float64

	// QuotaCores caps the cgroup's aggregate CPU demand (CFS bandwidth
	// control); 0 means unlimited. The power-budget enforcer adjusts it.
	QuotaCores float64

	// MemLimitKB is the cgroup memory limit (0 = unlimited); stage-3
	// statistics fixes present it as the container's MemTotal.
	MemLimitKB uint64

	// IfPrioMap holds net_prio.ifpriomap priority overrides keyed by
	// interface name (only meaningful for interfaces in the cgroup's own
	// NET namespace — but the buggy global handler ignores that).
	IfPrioMap map[string]int

	locks []FileLock
}

// Cgroup returns the cgroup at path, creating it if needed. Because it can
// mutate the cgroup table, it must only be called from the clock thread;
// read-side code (pseudo-file handlers) uses LookupCgroup instead.
func (k *Kernel) Cgroup(path string) *Cgroup {
	cg, ok := k.cgroups[path]
	if !ok {
		cg = &Cgroup{Path: path}
		k.cgroups[path] = cg
		k.cgroupList = append(k.cgroupList, cg)
		// A removed-then-recreated cgroup re-binds live tasks, matching
		// the per-tick map lookup this cache replaces.
		for _, t := range k.taskList {
			if t.CgroupPath == path {
				t.cg = cg
			}
		}
	}
	// Callers of this accessor mutate the returned cgroup (quotas, limits,
	// ifpriomap) even when it already exists, so conservatively mark the
	// scheduler/cgroup and network domains dirty: a false "dirty" only
	// costs the engine a redundant re-render, a false "clean" would break
	// byte identity. Read-side code uses LookupCgroup and never bumps.
	k.bump(MaskSched | MaskNet)
	return cg
}

// LookupCgroup returns the cgroup at path without creating it — the
// read-only accessor the pseudo-filesystem handlers use so that concurrent
// reads never write the cgroup table. A read of a never-created cgroup
// (possible only through a hand-built View) simply observes zero counters.
func (k *Kernel) LookupCgroup(path string) (*Cgroup, bool) {
	cg, ok := k.cgroups[path]
	return cg, ok
}

// Cgroups returns all cgroup paths in sorted order.
func (k *Kernel) Cgroups() []string {
	out := make([]string, 0, len(k.cgroups))
	for p := range k.cgroups {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// RemoveCgroup deletes a cgroup (when its container is destroyed).
func (k *Kernel) RemoveCgroup(path string) {
	if path == "/" {
		return
	}
	if cg, ok := k.cgroups[path]; ok {
		for i, c := range k.cgroupList {
			if c == cg {
				k.cgroupList = append(k.cgroupList[:i], k.cgroupList[i+1:]...)
				break
			}
		}
		for _, t := range k.taskList {
			if t.cg == cg {
				t.cg = nil
			}
		}
	}
	delete(k.cgroups, path)
	k.perf.RemoveGroup(path)
	k.bump(MaskSched | MaskNet)
}

// AddFileLock registers a file lock held by the task; it appears in the
// global /proc/locks table. Inode is attacker-controlled in the implant
// scenario (the inode of a file the attacker created).
func (k *Kernel) AddFileLock(t *Task, rw string, inode uint64) FileLock {
	k.nextLockID++
	l := FileLock{
		ID:      k.nextLockID,
		Type:    "POSIX",
		Mode:    "ADVISORY",
		RW:      rw,
		HostPID: t.HostPID,
		Inode:   inode,
	}
	cg := k.Cgroup(t.CgroupPath)
	cg.locks = append(cg.locks, l)
	k.bump(MaskSched)
	return l
}

// FileLocks returns the global lock table ordered by ID — again the
// namespace-oblivious view. System daemon locks (churned by the kernel
// tick) appear alongside tenant locks.
func (k *Kernel) FileLocks() []FileLock {
	n := k.numSysLocks()
	for _, cg := range k.cgroupList {
		n += len(cg.locks)
	}
	out := k.appendSysLocks(make([]FileLock, 0, n))
	for _, cg := range k.cgroupList {
		out = append(out, cg.locks...)
	}
	slices.SortFunc(out, func(a, b FileLock) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// SystemLocks returns the locks held by system daemons outside any
// container cgroup, oldest first.
func (k *Kernel) SystemLocks() []FileLock {
	return k.appendSysLocks(nil)
}

// sysLockWindow is how many system-daemon locks are live at once: the
// tick's churn drops the oldest when it takes one more.
const sysLockWindow = 6

// numSysLocks returns how many system-daemon locks are live.
func (k *Kernel) numSysLocks() int {
	return int(min(k.sysLockSeq, sysLockWindow))
}

// appendSysLocks appends the live system-daemon locks to dst, oldest
// first.
func (k *Kernel) appendSysLocks(dst []FileLock) []FileLock {
	for s := k.sysLockSeq - uint64(k.numSysLocks()) + 1; s <= k.sysLockSeq; s++ {
		dst = append(dst, k.sysLocks[(s-1)%sysLockWindow])
	}
	return dst
}

// FileLocksInCgroup returns only the locks held by tasks of one cgroup —
// the namespaced view a stage-2 kernel fix would expose.
func (k *Kernel) FileLocksInCgroup(path string) []FileLock {
	cg, ok := k.cgroups[path]
	if !ok {
		return nil
	}
	out := append([]FileLock(nil), cg.locks...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CgroupRSSKB sums the resident memory of one cgroup's tasks.
func (k *Kernel) CgroupRSSKB(path string) uint64 {
	var sum uint64
	for _, t := range k.tasks {
		if t.CgroupPath == path {
			sum += t.RSSKB
		}
	}
	return sum
}

// CgroupDemandCores sums the CPU demand of one cgroup's tasks (pre-quota).
func (k *Kernel) CgroupDemandCores(path string) float64 {
	var sum float64
	for _, t := range k.tasks {
		if t.CgroupPath == path {
			sum += t.DemandCores
		}
	}
	return sum
}

// TimerOwnersInNS returns only timer-owning tasks visible in the given PID
// namespace — the stage-2 fixed view of /proc/timer_list.
func (k *Kernel) TimerOwnersInNS(ns *NSSet) []*Task {
	var out []*Task
	for _, t := range k.tasks {
		if t.HasTimer && t.NS.ID(PID) == ns.ID(PID) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HostPID < out[j].HostPID })
	return out
}

// TimerOwners returns every task that owns an armed timer, ordered by host
// pid. /proc/timer_list renders this global view, which is what makes the
// timer-name implant work across containers.
func (k *Kernel) TimerOwners() []*Task {
	var out []*Task
	for _, t := range k.tasks {
		if t.HasTimer {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HostPID < out[j].HostPID })
	return out
}

// String implements fmt.Stringer for debugging.
func (t *Task) String() string {
	return fmt.Sprintf("Task{%s pid=%d nspid=%d cg=%s demand=%.2f}",
		t.Name, t.HostPID, t.NSPID, t.CgroupPath, t.DemandCores)
}
