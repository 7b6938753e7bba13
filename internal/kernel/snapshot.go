package kernel

import (
	"repro/internal/fastrand"
	"repro/internal/perfcount"
	"repro/internal/power"
)

// Snapshot is a copy-on-write capture of one kernel's complete mutable
// state: every accumulator the tick pipeline advances, the task/cgroup/
// namespace tables, the component states (meter, governor, perf monitor),
// and — crucially — the positions of both RNG streams. Restoring a
// Snapshot rewinds the kernel to the captured instant so precisely that
// every subsequent tick, spawn, and pseudo-file render is byte-identical
// to a freshly built world driven to the same point: the jitter stream
// resumes mid-sequence, nextPID/nextNSID reissue the same identifiers,
// and the load-average memo reproduces the same decay factors.
//
// Restore is in-place: Task, Cgroup, and NSSet objects that existed at
// capture time keep their pointer identity (so views, mounts, and
// container handles held by callers stay valid), while objects created
// after the capture are dropped from the tables. Slices that later code
// mutates in place (locks, device lists, pid maps) are handed back as
// fresh copies on every Restore, so one Snapshot can be restored any
// number of times.
//
// Epoch counters are restored to their captured values. That rewinds the
// incremental engine's dirty-tracking clock, so any engine built over the
// kernel before a Restore must be discarded and rebuilt afterwards — the
// world pool in internal/experiments creates engines per checkout for
// exactly this reason.
type Snapshot struct {
	rng     fastrand.State
	uuidRNG fastrand.State

	meter power.MeterState
	freq  power.GovernorState
	perf  *perfcount.MonitorState

	now        float64
	uptimeBase float64
	bootID     string
	nextNSID   uint64
	nextPID    int

	nsSets  []*NSSet
	nsState []nsSnap

	tasks     []*Task
	taskState []taskSnap

	cgroups []*Cgroup
	cgState []cgSnap

	nextLockID int
	sysLocks   [sysLockWindow]FileLock
	sysLockSeq uint64

	cpu          []CPUTimes
	idleCoreSec  float64
	ctxtSwitches float64
	forksTotal   uint64
	load1        float64
	load5        float64
	load15       float64
	lastBusy     float64
	newidleCost  []uint64

	// SoA backing blocks: every per-CPU accumulator row.
	jitterRows []float64
	idleRows   []float64

	memBaseUsedKB uint64
	cachedKB      float64
	numa          NUMAStats

	dentries     float64
	dentryUnused float64
	inodes       float64
	inodesFree   float64
	filesOpen    float64
	ext4Groups   []Ext4Group

	pgFaults       float64
	pgAllocs       float64
	sectorsRead    float64
	sectorsWritten float64

	entropyAvail float64

	schedRunNS  []float64
	schedWaitNS []float64
	timeslices  []uint64

	epochs Epochs

	decayDt  float64
	decayA1  float64
	decayA5  float64
	decayA15 float64
}

// taskSnap is one task's captured field values.
type taskSnap struct {
	t Task // value copy; Pinned re-copied on restore
}

// cgSnap is one cgroup's captured field values.
type cgSnap struct {
	cpuUsageNS float64
	quotaCores float64
	memLimitKB uint64
	ifPrioMap  map[string]int
	locks      []FileLock
}

// nsSnap is one namespace set's captured mutable state.
type nsSnap struct {
	ids        [nsTypeCount + 1]uint64
	hostname   string
	netDevs    []NetDev
	pidMap     map[int]int
	nextPID    int
	cgroupRoot string
	rootMapped bool
	createdAt  float64
	bootID     string
	shm        []ShmSegment
	nextShmID  int
}

// Snapshot captures the kernel's complete mutable state. The kernel must
// be quiescent (no tick or spawn in flight) — the same single-clock-thread
// contract every other mutating entry point has.
func (k *Kernel) Snapshot() *Snapshot {
	s := &Snapshot{
		rng:     k.rng.Save(),
		uuidRNG: k.uuidRNG.Save(),
		meter:   k.meter.Snapshot(),
		freq:    k.freq.Snapshot(),
		perf:    k.perf.Snapshot(),

		now:        k.now,
		uptimeBase: k.uptimeBase,
		bootID:     k.bootID,
		nextNSID:   k.nextNSID,
		nextPID:    k.nextPID,

		nextLockID: k.nextLockID,
		sysLocks:   k.sysLocks,
		sysLockSeq: k.sysLockSeq,

		cpu:          append([]CPUTimes(nil), k.cpu...),
		idleCoreSec:  k.idleCoreSec,
		ctxtSwitches: k.ctxtSwitches,
		forksTotal:   k.forksTotal,
		load1:        k.load1,
		load5:        k.load5,
		load15:       k.load15,
		lastBusy:     k.lastBusy,
		newidleCost:  append([]uint64(nil), k.newidleCost...),

		jitterRows: append([]float64(nil), k.jitterRows...),
		idleRows:   append([]float64(nil), k.idleRows...),

		memBaseUsedKB: k.memBaseUsedKB,
		cachedKB:      k.cachedKB,
		numa:          k.numa,

		dentries:     k.dentries,
		dentryUnused: k.dentryUnused,
		inodes:       k.inodes,
		inodesFree:   k.inodesFree,
		filesOpen:    k.filesOpen,
		ext4Groups:   append([]Ext4Group(nil), k.ext4Groups...),

		pgFaults:       k.pgFaults,
		pgAllocs:       k.pgAllocs,
		sectorsRead:    k.sectorsRead,
		sectorsWritten: k.sectorsWritten,

		entropyAvail: k.entropyAvail,

		schedRunNS:  append([]float64(nil), k.schedRunNS...),
		schedWaitNS: append([]float64(nil), k.schedWaitNS...),
		timeslices:  append([]uint64(nil), k.timeslices...),

		epochs: k.Epochs(),

		decayDt:  k.decayDt,
		decayA1:  k.decayA1,
		decayA5:  k.decayA5,
		decayA15: k.decayA15,
	}

	// Namespace sets: pointer identity plus per-set mutable state.
	s.nsSets = append([]*NSSet(nil), k.nsSets...)
	s.nsState = make([]nsSnap, len(k.nsSets))
	for i, ns := range k.nsSets {
		snap := nsSnap{
			ids:        ns.ids,
			hostname:   ns.Hostname,
			netDevs:    append([]NetDev(nil), ns.NetDevs...),
			nextPID:    ns.nextPID,
			cgroupRoot: ns.CgroupRoot,
			rootMapped: ns.RootMapped,
			createdAt:  ns.CreatedAt,
			bootID:     ns.BootID,
			shm:        append([]ShmSegment(nil), ns.shm...),
			nextShmID:  ns.nextShmID,
		}
		if ns.pidMap != nil {
			snap.pidMap = make(map[int]int, len(ns.pidMap))
			for h, n := range ns.pidMap {
				snap.pidMap[h] = n
			}
		}
		s.nsState[i] = snap
	}

	// Tasks: list order plus full value copies.
	s.tasks = append([]*Task(nil), k.taskList...)
	s.taskState = make([]taskSnap, len(k.taskList))
	for i, t := range k.taskList {
		s.taskState[i] = taskSnap{t: *t}
		s.taskState[i].t.Pinned = append([]int(nil), t.Pinned...)
	}

	// Cgroups: creation order plus value copies.
	s.cgroups = append([]*Cgroup(nil), k.cgroupList...)
	s.cgState = make([]cgSnap, len(k.cgroupList))
	for i, cg := range k.cgroupList {
		snap := cgSnap{
			cpuUsageNS: cg.CPUUsageNS,
			quotaCores: cg.QuotaCores,
			memLimitKB: cg.MemLimitKB,
			locks:      append([]FileLock(nil), cg.locks...),
		}
		if cg.IfPrioMap != nil {
			snap.ifPrioMap = make(map[string]int, len(cg.IfPrioMap))
			for dev, p := range cg.IfPrioMap {
				snap.ifPrioMap[dev] = p
			}
		}
		s.cgState[i] = snap
	}

	return s
}

// Restore rewinds the kernel to the captured state. See the Snapshot type
// comment for the identity and in-place semantics.
func (k *Kernel) Restore(s *Snapshot) {
	k.rng.Restore(s.rng)
	k.uuidMu.Lock()
	k.uuidRNG.Restore(s.uuidRNG)
	k.uuidMu.Unlock()
	k.meter.Restore(s.meter)
	k.freq.Restore(s.freq)
	k.perf.Restore(s.perf)

	k.now = s.now
	k.uptimeBase = s.uptimeBase
	k.bootID = s.bootID
	k.nextNSID = s.nextNSID
	k.nextPID = s.nextPID

	k.nextLockID = s.nextLockID
	k.sysLocks = s.sysLocks
	k.sysLockSeq = s.sysLockSeq

	copy(k.cpu, s.cpu)
	k.idleCoreSec = s.idleCoreSec
	k.ctxtSwitches = s.ctxtSwitches
	k.forksTotal = s.forksTotal
	k.load1, k.load5, k.load15 = s.load1, s.load5, s.load15
	k.lastBusy = s.lastBusy
	copy(k.newidleCost, s.newidleCost)

	copy(k.jitterRows, s.jitterRows)
	copy(k.idleRows, s.idleRows)

	k.memBaseUsedKB = s.memBaseUsedKB
	k.cachedKB = s.cachedKB
	k.numa = s.numa

	k.dentries = s.dentries
	k.dentryUnused = s.dentryUnused
	k.inodes = s.inodes
	k.inodesFree = s.inodesFree
	k.filesOpen = s.filesOpen
	copy(k.ext4Groups, s.ext4Groups)

	k.pgFaults = s.pgFaults
	k.pgAllocs = s.pgAllocs
	k.sectorsRead = s.sectorsRead
	k.sectorsWritten = s.sectorsWritten

	k.entropyAvail = s.entropyAvail

	copy(k.schedRunNS, s.schedRunNS)
	copy(k.schedWaitNS, s.schedWaitNS)
	copy(k.timeslices, s.timeslices)

	for sub := Subsystem(0); sub < NumSubsystems; sub++ {
		k.epochs[sub].Store(s.epochs[sub])
	}

	k.decayDt = s.decayDt
	k.decayA1 = s.decayA1
	k.decayA5 = s.decayA5
	k.decayA15 = s.decayA15

	// Namespace sets: restore captured sets in place, drop later ones.
	k.nsSets = append(k.nsSets[:0:0], s.nsSets...)
	for i, ns := range s.nsSets {
		snap := &s.nsState[i]
		ns.ids = snap.ids
		ns.Hostname = snap.hostname
		ns.NetDevs = append([]NetDev(nil), snap.netDevs...)
		if snap.pidMap != nil {
			ns.pidMap = make(map[int]int, len(snap.pidMap))
			for h, n := range snap.pidMap {
				ns.pidMap[h] = n
			}
		} else {
			ns.pidMap = nil
		}
		ns.nextPID = snap.nextPID
		ns.CgroupRoot = snap.cgroupRoot
		ns.RootMapped = snap.rootMapped
		ns.CreatedAt = snap.createdAt
		ns.BootID = snap.bootID
		ns.shm = append([]ShmSegment(nil), snap.shm...)
		ns.nextShmID = snap.nextShmID
	}

	// Cgroups first (tasks re-link to them below).
	k.cgroupList = append(k.cgroupList[:0:0], s.cgroups...)
	for p := range k.cgroups {
		delete(k.cgroups, p)
	}
	for i, cg := range s.cgroups {
		snap := &s.cgState[i]
		cg.CPUUsageNS = snap.cpuUsageNS
		cg.QuotaCores = snap.quotaCores
		cg.MemLimitKB = snap.memLimitKB
		if snap.ifPrioMap != nil {
			cg.IfPrioMap = make(map[string]int, len(snap.ifPrioMap))
			for dev, pr := range snap.ifPrioMap {
				cg.IfPrioMap[dev] = pr
			}
		} else {
			cg.IfPrioMap = nil
		}
		cg.locks = append([]FileLock(nil), snap.locks...)
		k.cgroups[cg.Path] = cg
	}
	k.rootCG = k.cgroups["/"]

	// Tasks: restore values into the captured pointers, rebuild the tables.
	k.taskList = append(k.taskList[:0:0], s.tasks...)
	for pid := range k.tasks {
		delete(k.tasks, pid)
	}
	for i, t := range s.tasks {
		saved := s.taskState[i].t
		*t = saved
		t.Pinned = append([]int(nil), saved.Pinned...)
		t.cg = k.cgroups[t.CgroupPath]
		k.tasks[t.HostPID] = t
	}
}
