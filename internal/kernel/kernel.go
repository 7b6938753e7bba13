// Package kernel simulates the slice of the Linux kernel that the paper's
// leakage study depends on: tasks and a CPU scheduler, the seven namespace
// types, cgroup hierarchies (cpuacct, perf_event, net_prio), and the global
// accounting state surfaced through procfs and sysfs — interrupts, softirqs,
// scheduler statistics, memory zones, file locks, timers, the entropy pool,
// loadavg, and uptime.
//
// The crucial design property is that every piece of state exists in two
// forms, mirroring Linux 4.7's *incomplete* container support:
//
//   - global (per-kernel) state reached by handlers that never learned about
//     namespaces — the leakage channels of Table I; and
//   - namespaced state reached through an NSSet — what a correct
//     implementation would expose.
//
// The pseudo-filesystem (internal/pseudofs) builds both kinds of handlers on
// top of this package, and the leakage detector (internal/core) finds the
// difference exactly the way the paper's cross-validation tool does.
package kernel

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/fastrand"
	"repro/internal/perfcount"
	"repro/internal/power"
)

// Options configures a simulated kernel (one per physical host).
type Options struct {
	Hostname      string
	Cores         int
	MemTotalKB    uint64
	Seed          int64
	BootWallClock int64 // Unix seconds of boot, reported as btime in /proc/stat
	KernelVersion string
	CPUModel      string
	CPUMHz        float64
	// WallClockNow is the wall-clock Unix time corresponding to simulated
	// t=0; together with BootWallClock it sets the host's starting uptime.
	WallClockNow int64
	Power        power.Config
}

func (o *Options) fillDefaults() {
	if o.Hostname == "" {
		o.Hostname = "host"
	}
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.MemTotalKB == 0 {
		o.MemTotalKB = 16 * 1024 * 1024 // 16 GiB
	}
	if o.BootWallClock == 0 {
		o.BootWallClock = 1478649600 // fleet install epoch
	}
	if o.KernelVersion == "" {
		o.KernelVersion = "4.7.0-repro"
	}
	if o.CPUModel == "" {
		o.CPUModel = "Intel(R) Core(TM) i7-6700 CPU @ 3.40GHz"
	}
	if o.CPUMHz == 0 {
		o.CPUMHz = 3400.0
	}
	if o.WallClockNow == 0 {
		o.WallClockNow = 1480291200 // 2016-11-28, the paper's check date
	}
	if o.Power.Cores == 0 {
		o.Power.Cores = o.Cores
	}
}

// Kernel is one simulated host kernel. It implements simclock.Ticker; drive
// it from the simulation clock.
//
// Concurrency: Tick, Spawn/Exit, and every other mutating call must stay on
// the single clock thread — the kernel is NOT safe for concurrent
// mutation. The pseudo-filesystem *read* path, however, is safe to run
// from many goroutines while the clock is paused: all snapshot accessors
// are pure reads, and the one volatile read (/proc/sys/kernel/random/uuid)
// draws from a dedicated mutex-guarded RNG so concurrent readers never
// race on — or perturb — the simulation's jitter stream. See
// ARCHITECTURE.md's concurrency contract.
type Kernel struct {
	// kernelState holds every mutable field; Snapshot is a copy of it
	// (snapshot.go). What stays outside is fixed at New, a view into the
	// state, a component with its own snapshot, a mutex, an atomic, or
	// scratch.
	kernelState

	opts Options

	// uuidMu guards uuidRNG: /proc/sys/kernel/random/uuid reads draw from
	// it concurrently during parallel cross-validation.
	uuidMu sync.Mutex

	meter *power.Meter
	freq  *power.Governor
	perf  *perfcount.Monitor

	// initNS and rootCG (cgroups["/"]) are created in New and never
	// removed, so the cached pointers stay valid for the kernel's lifetime.
	initNS *NSSet
	rootCG *Cgroup

	// Interrupt accounting. The PerCPU slices of every IRQ and SoftIRQ,
	// softnetPackets (per CPU) and the usage/time rows of every IdleState
	// are views into jitterRows and idleRows.
	irqs           []*IRQ
	softirqs       []*SoftIRQ
	softnetPackets []float64
	idleStates     []IdleState

	// epochs holds the per-subsystem generation counters behind the
	// incremental scan engine's dirty tracking (see epoch.go). Bumped via
	// bump(); atomic because one read path can reach a bump concurrently.
	epochs [NumSubsystems]atomic.Uint64

	tickScratch
}

// kernelState is a kernel's complete mutable state.
type kernelState struct {
	// rng drives the simulation's jitter stream. It is a fastrand.Rand —
	// bit-identical to math/rand for the same seed, but inlinable: Tick
	// draws ~850 jitter values per step at 24 cores, making this the
	// hottest call site in the whole substrate.
	rng fastrand.Rand

	// uuidRNG feeds /proc/sys/kernel/random/uuid reads (under uuidMu). It
	// is deliberately separate from rng: reads happen concurrently during
	// parallel cross-validation, and must neither race on nor reorder the
	// jitter stream that drives the deterministic simulation.
	uuidRNG fastrand.Rand

	now        float64 // simulated time (uptime advances with it)
	uptimeBase float64 // uptime already accumulated before t=0
	bootID     string
	nextNSID   uint64
	nextPID    int

	// nsSets registers every namespace set ever created on this kernel,
	// by mount namespace id, so Snapshot can capture and Restore rewind
	// their mutable state (pid maps, device lists, shm tables) in place.
	nsSets map[uint64]*NSSet

	tasks      map[int]*Task
	cgroups    map[string]*Cgroup
	nextLockID int
	// sysLocks is a ring of the system daemons' last sysLockWindow locks:
	// sysLockSeq counts the locks ever taken, and lock s (from 1) sits in
	// slot (s-1) % sysLockWindow.
	sysLocks   [sysLockWindow]FileLock
	sysLockSeq uint64

	// taskList mirrors tasks in ascending-pid order and cgroupList mirrors
	// cgroups in creation order. Tick iterates the slices instead of the
	// maps: the map versions cost randomized-iteration and string-hash
	// overhead on every tick, and the accumulations they feed are
	// order-invariant (integer counts, and float sums whose stability under
	// Go's randomized map order the byte-identity goldens have always
	// depended on).
	taskList   []*Task
	cgroupList []*Cgroup

	// Scheduler & CPU accounting.
	cpu          []CPUTimes
	idleCoreSec  float64
	ctxtSwitches float64
	forksTotal   uint64
	load1        float64
	load5        float64
	load15       float64
	lastBusy     float64 // busy core-equivalents of the last tick
	newidleCost  []uint64

	// Struct-of-arrays backing for the tick's jitter fan-outs. jitterRows
	// holds len(irqs)+len(softirqs) consecutive rows of Cores elements —
	// irq rows first, then softirq rows, in registration order — followed
	// by one softnet row; idleRows holds usage/time row pairs per cpuidle
	// state. The AoS structs (IRQ.PerCPU, SoftIRQ.PerCPU, IdleState.*,
	// softnetPackets) are subslice views over these arrays, so renderers
	// are layout-oblivious while the tick updates — and Snapshot copies —
	// whole blocks at once.
	jitterRows []float64
	idleRows   []float64

	// Memory accounting.
	memBaseUsedKB uint64
	cachedKB      float64
	numa          NUMAStats

	// VFS accounting.
	dentries     float64
	dentryUnused float64
	inodes       float64
	inodesFree   float64
	filesOpen    float64
	ext4Groups   []Ext4Group

	// VM & block-IO accounting (channels beyond Table I that the
	// detector discovers on its own).
	pgFaults       float64
	pgAllocs       float64
	sectorsRead    float64
	sectorsWritten float64

	// Entropy pool.
	entropyAvail float64

	// schedstat accumulation per cpu (nanoseconds).
	schedRunNS  []float64
	schedWaitNS []float64
	timeslices  []uint64

	// Load-average decay factors, memoized on the last dt seen: the
	// driving clock steps with a constant dt, so the three math.Exp calls
	// per tick collapse to three cached multiplies. Recomputing on a dt
	// change keeps the result bit-identical to the unmemoized form.
	decayDt  float64
	decayA1  float64
	decayA5  float64
	decayA15 float64
}

// tickScratch is Tick's scratch space, reused every step so the hot loop
// allocates nothing. Safe because Tick runs on a single shard worker and
// never hands these slices/maps to code that retains them
// (power.Meter.Step copies what it needs).
type tickScratch struct {
	// rowScales/idleScaleA/idleScaleB hold the fused row kernels'
	// per-row leading factors.
	rowScales  []float64
	idleScaleA []float64
	idleScaleB []float64

	perCoreScratch []float64
	sharesScratch  []float64
	quotaDemand    map[string]float64
	quotaOut       map[string]float64

	// Per-task tick mirrors, gathered once at the top of Tick into
	// contiguous arrays so the three task loops (demand sum, activity
	// aggregation, per-cgroup accounting) read sequential float64 slots
	// instead of chasing *Task pointers and re-resolving quota factors
	// through a string-keyed map each pass. taskDemand[i] mirrors
	// taskList[i].DemandCores; taskQF[i] is the task's quota factor (1
	// when unlimited). Mirrors, not authority: BenignLoad rewrites
	// Task.DemandCores between ticks, so the gather is what keeps the
	// arrays coherent.
	taskDemand []float64
	taskQF     []float64
}

// CPUTimes is the per-core /proc/stat accounting in USER_HZ(100) ticks.
type CPUTimes struct {
	User, Nice, System, Idle, IOWait, IRQ, SoftIRQ float64
}

// IRQ is one hardware interrupt line with per-CPU counters.
type IRQ struct {
	Name       string // e.g. "0", "24", "LOC"
	Desc       string // e.g. "IO-APIC timer", "eth0"
	PerCPU     []float64
	ratePerSec func(k *Kernel) float64
}

// SoftIRQ is one softirq class with per-CPU counters.
type SoftIRQ struct {
	Name       string
	PerCPU     []float64
	ratePerSec func(k *Kernel) float64
}

// IdleStateNames names the cpuidle states of every simulated CPU,
// shallowest first; /sys lays out one cpuidle/state# directory each.
var IdleStateNames = [...]string{"POLL", "C1", "C3", "C6"}

// IdleState is one cpuidle C-state with per-CPU usage/time accounting.
type IdleState struct {
	Name         string
	UsagePerCPU  []float64 // entry counts
	TimeUSPerCPU []float64 // cumulative residency, microseconds
}

// NUMAStats is the node-level allocation accounting behind numastat.
type NUMAStats struct {
	Hit, Miss, Foreign, InterleaveHit, LocalNode, OtherNode float64
}

// Ext4Group is one block-group row of /proc/fs/ext4/sda1/mb_groups.
type Ext4Group struct {
	Free  int
	Frags int
	First int
}

// New creates a booted kernel at simulated time zero.
func New(opts Options) *Kernel {
	opts.fillDefaults()
	k := &Kernel{opts: opts, perf: perfcount.NewMonitor()}
	k.rng = *fastrand.New(opts.Seed)
	k.tasks = make(map[int]*Task)
	k.cgroups = make(map[string]*Cgroup)
	k.nsSets = make(map[uint64]*NSSet)
	k.nextPID = 300 // early pids are kernel threads
	k.meter = power.New(opts.Power)
	k.freq = power.NewGovernor(power.GovernorConfig{
		Cores:  opts.Cores,
		MaxKHz: uint64(opts.CPUMHz * 1000),
	})
	k.uuidRNG = *fastrand.New(opts.Seed ^ 0x75756964) // "uuid"
	k.bootID = uuidFrom(&k.rng)                       // same draw order as always
	if opts.WallClockNow > opts.BootWallClock {
		k.uptimeBase = float64(opts.WallClockNow - opts.BootWallClock)
	}
	k.initNS = k.newInitNS()
	k.cpu = make([]CPUTimes, opts.Cores)
	k.perCoreScratch = make([]float64, opts.Cores)
	k.sharesScratch = make([]float64, opts.Cores)
	k.quotaDemand = make(map[string]float64, 8)
	k.quotaOut = make(map[string]float64, 8)
	k.newidleCost = make([]uint64, opts.Cores)
	k.schedRunNS = make([]float64, opts.Cores)
	k.schedWaitNS = make([]float64, opts.Cores)
	k.timeslices = make([]uint64, opts.Cores)
	k.memBaseUsedKB = opts.MemTotalKB / 10 // kernel + system services
	k.cachedKB = float64(opts.MemTotalKB) * 0.15
	k.entropyAvail = 3000 + float64(k.rng.Intn(800))
	k.dentries = 80000 + float64(k.rng.Intn(20000))
	k.dentryUnused = k.dentries * 0.8
	k.inodes = 60000 + float64(k.rng.Intn(15000))
	k.inodesFree = 500 + float64(k.rng.Intn(300))
	k.filesOpen = 3000 + float64(k.rng.Intn(2000))
	// Historic idle: the host was mostly idle before the simulation window.
	k.idleCoreSec = k.uptimeBase * float64(opts.Cores) * (0.7 + 0.2*k.rng.Float64())
	for i := range k.newidleCost {
		k.newidleCost[i] = uint64(20000 + k.rng.Intn(40000))
	}

	k.irqs = []*IRQ{
		{Name: "0", Desc: "IO-APIC    2-edge      timer", ratePerSec: func(*Kernel) float64 { return 0.01 }},
		{Name: "8", Desc: "IO-APIC    8-edge      rtc0", ratePerSec: func(*Kernel) float64 { return 0.001 }},
		{Name: "24", Desc: "PCI-MSI 1048576-edge      eth0", ratePerSec: func(k *Kernel) float64 { return 200 + 5000*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "25", Desc: "PCI-MSI 512000-edge      ahci[0000:00:17.0]", ratePerSec: func(k *Kernel) float64 { return 50 + 400*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "LOC", Desc: "Local timer interrupts", ratePerSec: func(*Kernel) float64 { return 250 }},
		{Name: "RES", Desc: "Rescheduling interrupts", ratePerSec: func(k *Kernel) float64 { return 30 + 500*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "CAL", Desc: "Function call interrupts", ratePerSec: func(k *Kernel) float64 { return 10 + 100*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "TLB", Desc: "TLB shootdowns", ratePerSec: func(k *Kernel) float64 { return 5 + 200*k.lastBusy/float64(k.opts.Cores) }},
	}
	// (PerCPU rows are bound to the SoA backing after the softirq table
	// below.)
	k.softirqs = []*SoftIRQ{
		{Name: "HI", ratePerSec: func(*Kernel) float64 { return 1 }},
		{Name: "TIMER", ratePerSec: func(*Kernel) float64 { return 250 }},
		{Name: "NET_TX", ratePerSec: func(k *Kernel) float64 { return 20 + 1000*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "NET_RX", ratePerSec: func(k *Kernel) float64 { return 200 + 5000*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "BLOCK", ratePerSec: func(k *Kernel) float64 { return 30 + 300*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "TASKLET", ratePerSec: func(*Kernel) float64 { return 5 }},
		{Name: "SCHED", ratePerSec: func(k *Kernel) float64 { return 100 + 400*k.lastBusy/float64(k.opts.Cores) }},
		{Name: "HRTIMER", ratePerSec: func(*Kernel) float64 { return 2 }},
		{Name: "RCU", ratePerSec: func(k *Kernel) float64 { return 150 + 300*k.lastBusy/float64(k.opts.Cores) }},
	}
	k.idleStates = make([]IdleState, len(IdleStateNames))
	for i, name := range IdleStateNames {
		k.idleStates[i].Name = name
	}
	// Struct-of-arrays backing: irq rows, then softirq rows, then the
	// softnet row, in one contiguous block; cpuidle usage/time pairs in a
	// second. The AoS structs alias subslices of these blocks.
	cores := opts.Cores
	jrows := len(k.irqs) + len(k.softirqs)
	k.jitterRows = make([]float64, (jrows+1)*cores)
	row := func(r int) []float64 { return k.jitterRows[r*cores : (r+1)*cores : (r+1)*cores] }
	for i, irq := range k.irqs {
		irq.PerCPU = row(i)
	}
	for i, s := range k.softirqs {
		s.PerCPU = row(len(k.irqs) + i)
	}
	k.softnetPackets = row(jrows)
	k.idleRows = make([]float64, 2*len(k.idleStates)*cores)
	for i := range k.idleStates {
		k.idleStates[i].UsagePerCPU = k.idleRows[(2*i)*cores : (2*i+1)*cores : (2*i+1)*cores]
		k.idleStates[i].TimeUSPerCPU = k.idleRows[(2*i+1)*cores : (2*i+2)*cores : (2*i+2)*cores]
	}
	k.rowScales = make([]float64, jrows)
	k.idleScaleA = make([]float64, len(k.idleStates))
	k.idleScaleB = make([]float64, len(k.idleStates))
	k.ext4Groups = make([]Ext4Group, 16)
	for i := range k.ext4Groups {
		k.ext4Groups[i] = Ext4Group{
			Free:  8000 + k.rng.Intn(24000),
			Frags: 10 + k.rng.Intn(400),
			First: i * 32768,
		}
	}

	// The root cgroup always exists (and is never removed — RemoveCgroup
	// refuses "/" — so the cached pointer stays valid for the kernel's
	// lifetime).
	k.rootCG = &Cgroup{Path: "/"}
	k.cgroups["/"] = k.rootCG
	k.cgroupList = append(k.cgroupList, k.rootCG)
	k.perf.CreateGroup("/")
	return k
}

// Options returns the kernel's effective options.
func (k *Kernel) Options() Options { return k.opts }

// Meter exposes the host power meter (the simulated RAPL hardware).
func (k *Kernel) Meter() *power.Meter { return k.meter }

// Freq exposes the per-core DVFS governor behind the cpufreq sysfs files.
func (k *Kernel) Freq() *power.Governor { return k.freq }

// Perf exposes the perf_event accounting monitor.
func (k *Kernel) Perf() *perfcount.Monitor { return k.perf }

// BootID returns the per-boot random UUID behind
// /proc/sys/kernel/random/boot_id — the paper's strongest co-residence
// indicator.
func (k *Kernel) BootID() string { return k.bootID }

// Now returns seconds since boot (simulated).
func (k *Kernel) Now() float64 { return k.now }

// Uptime returns (uptime, aggregate idle core-seconds) as /proc/uptime
// reports them. Uptime includes the host's pre-simulation age, so hosts
// booted at different wall-clock times report distinct values.
func (k *Kernel) Uptime() (up, idle float64) { return k.uptimeBase + k.now, k.idleCoreSec }

// InitNS returns the host's initial namespace set.
func (k *Kernel) InitNS() *NSSet { return k.initNS }

// genUUID produces an RFC-4122-shaped random UUID. It draws from the
// dedicated uuid RNG under a mutex: /proc/sys/kernel/random/uuid is the one
// pseudo-file whose read is inherently volatile, and parallel
// cross-validation reads it from many goroutines at once. Serializing only
// this draw keeps the read race-free without perturbing k.rng, whose
// consumption order the deterministic simulation depends on.
func (k *Kernel) genUUID() string {
	k.uuidMu.Lock()
	defer k.uuidMu.Unlock()
	return uuidFrom(&k.uuidRNG)
}

// uuidFrom formats 16 bytes of rng output as an RFC-4122 UUID.
func uuidFrom(rng *fastrand.Rand) string {
	b := make([]byte, 16)
	rng.Read(b)
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// Tick advances the kernel by dt seconds of simulated time. It schedules
// tasks onto cores, integrates power/thermal state, and updates every
// accounting structure surfaced through the pseudo-filesystems. now is the
// global simulation time; the kernel treats its own boot as t=0 of the
// global clock it is driven by.
func (k *Kernel) Tick(now, dt float64) {
	k.now = now
	// A tick mutates scheduler, memory/VFS, network, and power accounting
	// all at once; namespace structure is untouched.
	k.bump(MaskSched | MaskMem | MaskNet | MaskPower)

	// 1. Schedule. First apply per-cgroup CPU quotas (CFS bandwidth
	// control — the throttling lever the power-based namespace's budget
	// enforcement uses), then derive the global speedup factor when the
	// host is oversubscribed, and the aggregate activity vector.
	//
	// quotaF is nil when no cgroup carries a quota (the common case:
	// undefended worlds never set QuotaCores), which skips two map
	// allocations per tick; multiplying by an explicit 1.0 factor and
	// skipping the multiply are bit-identical in IEEE-754, so both paths
	// produce the same bytes.
	quotaF := k.quotaFactors()
	// Gather the per-task mirrors: contiguous demand and quota-factor
	// arrays in taskList order. Every later loop indexes these instead of
	// re-reading Task fields and re-resolving quota factors; multiplying
	// by an explicit 1.0 factor and skipping the multiply are bit-identical
	// in IEEE-754, so the unconditional d*qf form below matches the
	// historical branchy one byte for byte.
	if cap(k.taskDemand) < len(k.taskList) {
		k.taskDemand = make([]float64, len(k.taskList), 2*len(k.taskList)+8)
		k.taskQF = make([]float64, len(k.taskList), 2*len(k.taskList)+8)
	}
	k.taskDemand = k.taskDemand[:len(k.taskList)]
	k.taskQF = k.taskQF[:len(k.taskList)]
	var demand float64
	for i, t := range k.taskList {
		qf := 1.0
		if quotaF != nil {
			qf = quotaF[t.CgroupPath]
		}
		k.taskDemand[i] = t.DemandCores
		k.taskQF[i] = qf
		demand += t.DemandCores * qf
	}
	f := 1.0
	cores := float64(k.opts.Cores)
	if demand > cores {
		f = cores / demand
	}
	busy := demand * f
	k.lastBusy = busy

	var agg perfcount.Rates
	perCore := k.perCoreScratch
	for i := range perCore {
		perCore[i] = 0
	}
	var pinnedLoad float64
	for i, t := range k.taskList {
		tf := f * k.taskQF[i]
		r := t.Rates.Times(tf)
		agg = agg.Plus(r)
		if len(t.Pinned) > 0 {
			share := k.taskDemand[i] * tf / float64(len(t.Pinned))
			for _, c := range t.Pinned {
				if c >= 0 && c < len(perCore) {
					perCore[c] += share
					pinnedLoad += share
				}
			}
		}
	}
	// Spread unpinned load evenly.
	unpinned := busy - pinnedLoad
	if unpinned < 0 {
		unpinned = 0
	}
	for i := range perCore {
		perCore[i] += unpinned / cores
	}
	// Normalize to power-share fractions.
	shares := k.sharesScratch
	for i := range shares {
		shares[i] = 0
	}
	if busy > 0 {
		for i, u := range perCore {
			shares[i] = u / busy
		}
	}

	// 2. Power capping + energy integration.
	admitted, capFactor := k.meter.Throttle(agg)
	k.meter.Step(admitted, dt, shares)
	eff := f * capFactor

	// 3. Per-cgroup accounting: cpuacct cycles and perf counters. The root
	// cgroup receives the whole-host aggregate below, so tasks living
	// directly in "/" are skipped here to avoid double counting.
	for i, t := range k.taskList {
		if t.CgroupPath == "/" {
			continue
		}
		cg := t.cg // cached k.cgroups[t.CgroupPath]; nil after RemoveCgroup
		if cg == nil {
			continue
		}
		teff := eff * k.taskQF[i]
		cpuSec := k.taskDemand[i] * teff * dt
		cg.CPUUsageNS += cpuSec * 1e9
		k.perf.Account(t.CgroupPath, t.Rates.Times(teff).Scale(dt))
	}
	// Root cgroup observes everything (host-wide accounting).
	k.rootCG.CPUUsageNS += busy * capFactor * dt * 1e9
	k.perf.Account("/", agg.Times(capFactor).Scale(dt))

	// 4. CPU time accounting (USER_HZ ticks) and idle bookkeeping.
	idleCores := cores - busy*capFactor
	if idleCores < 0 {
		idleCores = 0
	}
	k.idleCoreSec += idleCores * dt
	hz := 100.0
	for i := range k.cpu {
		util := perCore[i] * capFactor
		if util > 1 {
			util = 1
		}
		k.cpu[i].User += util * 0.92 * dt * hz
		k.cpu[i].System += util * 0.06 * dt * hz
		k.cpu[i].IRQ += util * 0.01 * dt * hz
		k.cpu[i].SoftIRQ += util * 0.01 * dt * hz
		k.cpu[i].Idle += (1 - util) * dt * hz
		k.schedRunNS[i] += util * dt * 1e9
		k.schedWaitNS[i] += util * util * 0.08 * dt * 1e9 // queueing grows with load
		k.timeslices[i] += uint64(util*dt*200) + 1
	}

	// 4b. DVFS: the governor follows the same per-core utilizations the
	// accounting loop just consumed. It sits before section 5 on purpose —
	// Step is RNG-free pure arithmetic, so the jitter stream's draw order
	// (and with it every pre-governor rendered byte) is unchanged.
	k.freq.Step(perCore, capFactor, dt)

	// 5. Interrupts, softirqs, context switches. Two bit-identical
	// transformations keep this section — the widest jitter fan-out of the
	// tick — cheap: the per-CPU share is hoisted out of the inner loops
	// (total/cores is the leading factor of the original left-associated
	// expression), and the draw+accumulate of all 17 irq+softirq rows,
	// consecutive in jitterRows, is fused into one fastrand pass
	// (AddScaledJitterRows applies jitter's expression verbatim, row-major,
	// with the generator state in registers and no scratch buffer).
	for i, irq := range k.irqs {
		k.rowScales[i] = irq.ratePerSec(k) * dt / cores
	}
	for i, s := range k.softirqs {
		k.rowScales[len(k.irqs)+i] = s.ratePerSec(k) * dt / cores
	}
	k.rng.AddScaledJitterRows(k.jitterRows[:len(k.rowScales)*k.opts.Cores], k.opts.Cores, k.rowScales, 0.1)
	k.ctxtSwitches += (300 + 900*busy) * dt

	// 6. Load averages: exponentially-damped toward the runnable count,
	// with the classic 1/5/15-minute constants. The decay factors depend
	// only on dt (constant under a steadily stepping clock), so they are
	// memoized rather than re-derived through math.Exp every tick.
	if dt != k.decayDt || k.decayA1 == 0 {
		k.decayDt = dt
		k.decayA1 = 1 - math.Exp(-dt/(1*60))
		k.decayA5 = 1 - math.Exp(-dt/(5*60))
		k.decayA15 = 1 - math.Exp(-dt/(15*60))
	}
	k.load1 += (demand - k.load1) * k.decayA1
	k.load5 += (demand - k.load5) * k.decayA5
	k.load15 += (demand - k.load15) * k.decayA15

	// 7. cpuidle residency. The per-CPU bases are the leading factors of
	// the original left-associated expressions, hoisted out of the inner
	// loop (bit-identical; saves multiplies and a division per CPU). All
	// four usage/time row pairs go through one fused call: draws in state
	// order, usage then time per CPU (see section 5).
	idleFrac := idleCores / cores
	for i := range k.idleStates {
		// Deeper states get the longer residencies; POLL gets almost none.
		weight := idleWeights[i]
		k.idleScaleA[i] = idleFrac * weight * 80 * dt
		k.idleScaleB[i] = idleFrac * weight * dt * 1e6 / cores
	}
	k.rng.AddScaledJitter2Rows(k.idleRows, k.opts.Cores, k.idleScaleA, k.idleScaleB, 0.05)

	// 8. Memory & VFS drift.
	k.cachedKB += (20*busy + 5) * dt * k.jitter(0.3)
	if max := float64(k.opts.MemTotalKB) * 0.4; k.cachedKB > max {
		k.cachedKB = max
	}
	k.numa.Hit += (5000 + 200000*busy) * dt
	k.numa.LocalNode = k.numa.Hit
	k.numa.InterleaveHit += 2 * dt
	k.dentries += (40*busy + 2) * dt * k.jitter(0.5)
	k.dentryUnused += (30*busy + 1) * dt * k.jitter(0.5)
	k.inodes += (20*busy + 1) * dt * k.jitter(0.5)
	k.filesOpen += (10*busy - 5 + k.rng.Float64()*10) * dt
	if k.filesOpen < 500 {
		k.filesOpen = 500
	}
	if g := k.rng.Intn(len(k.ext4Groups)); busy > 0.1 {
		k.ext4Groups[g].Free -= k.rng.Intn(5)
		k.ext4Groups[g].Frags += k.rng.Intn(3) - 1
		if k.ext4Groups[g].Free < 0 {
			k.ext4Groups[g].Free = 0
		}
		if k.ext4Groups[g].Frags < 1 {
			k.ext4Groups[g].Frags = 1
		}
	}

	// 8b. VM and block-IO counters: faults and allocations track activity;
	// disk sectors follow the IO-ish share of the load; softnet packets
	// follow network interrupt volume.
	k.pgFaults += (200 + 30000*busy) * dt * k.jitter(0.2)
	k.pgAllocs += (500 + 80000*busy) * dt * k.jitter(0.2)
	k.sectorsRead += (40 + 1500*busy) * dt * k.jitter(0.4)
	k.sectorsWritten += (80 + 2500*busy) * dt * k.jitter(0.4)
	softnet := (25 + 700*busy/cores) * dt
	k.rng.AddScaledJitterRows(k.softnetPackets, k.opts.Cores, []float64{softnet}, 0.2)

	// 9. Entropy pool random walk between depletion and refill.
	k.entropyAvail += (k.rng.Float64()*2 - 1) * 120 * dt
	if k.entropyAvail < 180 {
		k.entropyAvail = 180
	}
	if k.entropyAvail > 4096 {
		k.entropyAvail = 4096
	}

	// 10. System lock churn: daemons (dhclient, rsyslog, …) take and drop
	// POSIX locks continuously on a live host, which is what makes
	// /proc/locks a time-varying channel.
	if k.rng.Float64() < 0.2*dt {
		k.sysLockSeq++
		k.sysLocks[(k.sysLockSeq-1)%sysLockWindow] = FileLock{
			ID:      -int(k.sysLockSeq), // negative IDs: kernel-internal rows
			Type:    "FLOCK",
			Mode:    "ADVISORY",
			RW:      "WRITE",
			HostPID: 100 + int(k.sysLockSeq)%50,
			Inode:   uint64(k.rng.Intn(1 << 20)),
		}
	}

	// 11. Scheduler-domain balancing cost random walk.
	for i := range k.newidleCost {
		delta := k.rng.Intn(2001) - 1000
		v := int64(k.newidleCost[i]) + int64(delta)
		if v < 5000 {
			v = 5000
		}
		if v > 120000 {
			v = 120000
		}
		k.newidleCost[i] = uint64(v)
	}
}

// quotaFactors computes, per cgroup, the demand scale enforcing its CPU
// quota (1 when unlimited or under quota). It returns nil when no cgroup
// carries a quota at all — callers treat nil as "factor 1 everywhere" —
// so the hot, undefended path builds no maps. When quotas exist, the two
// scratch maps on the Kernel are cleared and reused.
func (k *Kernel) quotaFactors() map[string]float64 {
	hasQuota := false
	for _, cg := range k.cgroupList {
		if cg.QuotaCores > 0 {
			hasQuota = true
			break
		}
	}
	if !hasQuota {
		return nil
	}
	demand := k.quotaDemand
	clear(demand)
	for _, t := range k.taskList {
		demand[t.CgroupPath] += t.DemandCores
	}
	out := k.quotaOut
	clear(out)
	for path, d := range demand {
		out[path] = 1
		cg := k.cgroups[path]
		if cg != nil && cg.QuotaCores > 0 && d > cg.QuotaCores {
			out[path] = cg.QuotaCores / d
		}
	}
	return out
}

// idleWeights is the residency share of each cpuidle state (POLL, C1, C3,
// C6): deeper states get the longer residencies. Package-level so Tick's
// hot loop indexes a constant array instead of building a literal.
var idleWeights = [4]float64{0.01, 0.09, 0.3, 0.6}

// jitter returns a multiplicative noise factor in [1-a, 1+a]. It must stay
// within the compiler's inlining budget (go build -gcflags='-m' reports
// the cost): Tick calls it ~850 times per server step, and the call-frame
// overhead of a non-inlined jitter is measurable at Fig. 3 scale.
func (k *Kernel) jitter(a float64) float64 {
	return 1 + (k.rng.Float64()*2-1)*a
}
