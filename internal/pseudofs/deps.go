package pseudofs

import "repro/internal/kernel"

// Dep declares what a pseudo-file's rendering depends on, in terms of the
// kernel's dirty-tracking subsystems (kernel.Subsystem). The incremental
// scan engine (internal/engine) uses it to decide whether a cached render
// is still valid: a path's content for a fixed view is guaranteed
// unchanged while the combined epoch of its dependency mask is unchanged.
//
// Tags are deliberately conservative: they may include subsystems the
// handler does not read (costing a redundant re-render) but must never
// omit one it does (which would let the engine serve a stale render and
// break byte identity). Paths with no table entry default to depending on
// everything.
type Dep struct {
	// Mask selects the kernel subsystems whose mutation can change this
	// path's content for a fixed view. The zero mask means the content is
	// immutable for the life of the FS (static files).
	Mask kernel.SubsystemMask

	// Volatile marks files whose content changes on every read regardless
	// of kernel state (/proc/sys/kernel/random/uuid). Their *content* is
	// uncacheable, but their cross-validation classification is still
	// deterministic, so the engine may cache the Finding while never
	// caching bytes.
	Volatile bool
}

// depRule is one row of the dependency table; Pattern uses the same glob
// language as Policy rules ('*' within a segment, trailing "/**" for
// subtrees).
type depRule struct {
	Pattern string
	Dep     Dep
}

// depTable maps the built tree to dependency tags. The first matching row
// wins, so a specific rule must precede any broader pattern covering the
// same paths; exact paths are listed first only for readability. The
// grouping mirrors the kernel's Tick commentary: anything mutated during a
// tick is covered by the tick's sched|mem|net|power bump, so the tags here
// only need to be exact about the out-of-tick mutation paths (Spawn/Exit,
// cgroup churn, namespace and device churn).
var depTable = []depRule{
	// Immutable host facts.
	{"/proc/version", Dep{}},
	{"/proc/cpuinfo", Dep{}},
	{"/proc/modules", Dep{}},
	{"/proc/filesystems", Dep{}},
	{"/proc/partitions", Dep{}},
	{"/proc/swaps", Dep{}},
	{"/sys/devices/system/cpu/online", Dep{}},
	{"/sys/devices/system/cpu/cpu*/cpuidle/state*/name", Dep{}},

	// Truly volatile: a fresh UUID on every read.
	{"/proc/sys/kernel/random/uuid", Dep{Volatile: true}},

	// Identity files fixed at namespace creation (host boot id, per-ns
	// boot ids, ns inode numbers, cgroup membership, UTS hostname, SysV
	// IPC segments).
	{"/proc/sys/kernel/random/boot_id", Dep{Mask: kernel.MaskNS}},
	{"/proc/self/ns/*", Dep{Mask: kernel.MaskNS}},
	{"/proc/self/cgroup", Dep{Mask: kernel.MaskNS | kernel.MaskSched}},
	{"/proc/sys/kernel/hostname", Dep{Mask: kernel.MaskNS}},
	{"/proc/sysvipc/shm", Dep{Mask: kernel.MaskNS}},

	// Scheduler / task / interrupt / lock accounting.
	{"/proc/uptime", Dep{Mask: kernel.MaskSched | kernel.MaskNS}},
	{"/proc/loadavg", Dep{Mask: kernel.MaskSched}},
	{"/proc/stat", Dep{Mask: kernel.MaskSched}},
	{"/proc/interrupts", Dep{Mask: kernel.MaskSched}},
	{"/proc/softirqs", Dep{Mask: kernel.MaskSched}},
	{"/proc/schedstat", Dep{Mask: kernel.MaskSched}},
	{"/proc/sched_debug", Dep{Mask: kernel.MaskSched}},
	{"/proc/timer_list", Dep{Mask: kernel.MaskSched}},
	{"/proc/locks", Dep{Mask: kernel.MaskSched}},
	{"/proc/sys/kernel/sched_domain/**", Dep{Mask: kernel.MaskSched}},
	{"/sys/fs/cgroup/cpuacct/cpuacct.usage", Dep{Mask: kernel.MaskSched}},

	// Memory / VFS / VM / block accounting.
	{"/proc/meminfo", Dep{Mask: kernel.MaskMem | kernel.MaskSched}},
	{"/proc/zoneinfo", Dep{Mask: kernel.MaskMem}},
	{"/proc/vmstat", Dep{Mask: kernel.MaskMem}},
	{"/proc/diskstats", Dep{Mask: kernel.MaskMem}},
	{"/proc/buddyinfo", Dep{Mask: kernel.MaskMem}},
	{"/proc/sys/fs/dentry-state", Dep{Mask: kernel.MaskMem}},
	{"/proc/sys/fs/inode-nr", Dep{Mask: kernel.MaskMem}},
	{"/proc/sys/fs/file-nr", Dep{Mask: kernel.MaskMem}},
	{"/proc/fs/ext4/sda1/mb_groups", Dep{Mask: kernel.MaskMem}},
	{"/proc/sys/kernel/random/entropy_avail", Dep{Mask: kernel.MaskMem}},
	{"/sys/devices/system/node/*/numastat", Dep{Mask: kernel.MaskMem}},
	{"/sys/devices/system/node/*/vmstat", Dep{Mask: kernel.MaskMem}},
	{"/sys/devices/system/node/*/meminfo", Dep{Mask: kernel.MaskMem | kernel.MaskSched}},

	// Network accounting and device lists.
	{"/proc/net/dev", Dep{Mask: kernel.MaskNet | kernel.MaskNS}},
	{"/proc/net/softnet_stat", Dep{Mask: kernel.MaskNet}},
	{"/sys/fs/cgroup/net_prio/net_prio.ifpriomap", Dep{Mask: kernel.MaskNet | kernel.MaskSched | kernel.MaskNS}},

	// Power and thermal sensors (cpuidle residency is integrated by the
	// scheduler tick alongside power, so tag both). The energy_uj rules
	// must precede the static powercap catch-all: RAPL domains nest
	// (intel-rapl:0/intel-rapl:0:0), so both depths are listed.
	// Defended providers (powerns) attribute per-cgroup energy/heat, so
	// the sensors also pick up the scheduler domain.
	{"/sys/class/powercap/intel-rapl:0/energy_uj", Dep{Mask: kernel.MaskPower | kernel.MaskSched}},
	{"/sys/class/powercap/intel-rapl:0/*/energy_uj", Dep{Mask: kernel.MaskPower | kernel.MaskSched}},
	{"/sys/class/powercap/**", Dep{}}, // name, max_energy_range_uj: static
	{"/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp*_input", Dep{Mask: kernel.MaskPower | kernel.MaskSched}},
	{"/sys/devices/system/cpu/cpu*/cpuidle/state*/usage", Dep{Mask: kernel.MaskSched | kernel.MaskPower}},
	{"/sys/devices/system/cpu/cpu*/cpuidle/state*/time", Dep{Mask: kernel.MaskSched | kernel.MaskPower}},

	// DVFS: the governor steps inside the scheduler tick, following load
	// under the meter's power cap, so the dynamic cpufreq reads carry both
	// subsystems. The dynamic rules must precede the static catch-alls
	// (range/driver/governor files never change). A "/**" suffix cannot
	// carry a wildcard in its prefix, so the statics use segment globs.
	{"/sys/devices/system/cpu/cpu*/cpufreq/scaling_cur_freq", Dep{Mask: kernel.MaskSched | kernel.MaskPower}},
	{"/sys/devices/system/cpu/cpu*/cpufreq/stats/total_trans", Dep{Mask: kernel.MaskSched | kernel.MaskPower}},
	{"/sys/devices/system/cpu/cpu*/cpufreq/*", Dep{}},
}

// depIndex is depTable's patterns compiled once at package init. Like the
// table it is immutable; layouts resolve their paths' tags through it.
var depIndex = func() *GlobIndex {
	patterns := make([]string, len(depTable))
	for i, r := range depTable {
		patterns[i] = r.Pattern
	}
	return CompileGlobs(patterns)
}()

// depAll is the conservative default for paths the table does not know:
// depend on everything, never volatile.
var depAll = Dep{Mask: kernel.MaskAll}

// Dep returns the dependency tag for a path. Unknown paths conservatively
// depend on every subsystem. Tags for the tree's own files live in the
// layout, so the common lookup is one index probe; only paths outside the
// tree go to the dependency index.
func (fs *FS) Dep(path string) Dep {
	if i := fs.position(path); i >= 0 {
		return fs.DepAt(i)
	}
	return lookupDep(path)
}

// DepAt returns the dependency tag of the file at layout position i (the
// index of its path in Paths).
func (fs *FS) DepAt(i int) Dep { return fs.lay.deps[i] }

// lookupDep returns the tag of the first depTable row matching path.
func lookupDep(path string) Dep {
	if i := depIndex.First(path); i >= 0 {
		return depTable[i].Dep
	}
	return depAll
}

// PathEpoch returns the source epoch of a path: a monotone counter that is
// guaranteed to move whenever the path's rendered content (for any fixed
// view) may have changed. It folds together the kernel epochs selected by
// the path's dependency mask, the FS-wide provider/injector generation,
// and the path's handler-replacement generation — each addend is monotone
// non-decreasing, so equal sums imply every component is unchanged.
func (fs *FS) PathEpoch(path string) uint64 {
	if i := fs.position(path); i >= 0 {
		return fs.PathEpochAt(i)
	}
	return fs.k.Epochs().Combined(lookupDep(path).Mask) + fs.fsGen
}

// PathEpochAt is PathEpoch of the file at layout position i.
func (fs *FS) PathEpochAt(i int) uint64 {
	ep := fs.k.Epochs().Combined(fs.lay.deps[i].Mask) + fs.fsGen
	if fs.replaceGen != nil {
		ep += fs.replaceGen[i]
	}
	return ep
}

// Epoch returns the FS-wide source epoch: moves whenever anything at all
// may have changed (any kernel subsystem, provider swap, or handler
// replacement).
func (fs *FS) Epoch() uint64 {
	return fs.k.Epochs().Combined(kernel.MaskAll) + fs.fsGen + fs.totalReplaceGen
}

// Faulty reports whether a fault injector is installed. Injectors consume
// per-read randomness, so any layer that skips or reorders reads (the
// incremental engine's caches) must bypass itself while Faulty is true to
// preserve the chaos determinism contract.
func (fs *FS) Faulty() bool { return fs.injector != nil }
