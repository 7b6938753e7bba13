package powerns

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/perfcount"
	"repro/internal/power"
	"repro/internal/pseudofs"
)

// wrapCalibrationFactor bounds how far a wrap-classified raw-counter delta
// may exceed the modeled host energy before the interval's calibration is
// rejected as a disguised counter reset (see update).
const wrapCalibrationFactor = 10

// Namespace is one host's power-based namespace: it partitions the host's
// RAPL energy among containers and serves per-container counters through
// the unchanged energy_uj interface. Create with New, attach containers
// with Register, and activate with Install.
//
// Concurrency: a container-context energy_uj read lazily advances the
// accounting (update), which mutates namespace state — the one read
// handler in the tree with side effects. All entry points therefore
// serialize on an internal mutex, so parallel cross-validation of a
// defended host is race-free; the accounting itself advances at most once
// per simulated instant, so results do not depend on which reader arrives
// first. Register/Unregister remain clock-thread-only operations.
type Namespace struct {
	k     *kernel.Kernel
	model *Model

	// mu serializes the lazily-updating read path (EnergyUJ, Meter,
	// LastPower, and the thermal namespace's CoreTempC).
	mu sync.Mutex

	// rawSource reads the raw RAPL counters used for Formula 3
	// calibration; it defaults to the host meter. A chaos harness swaps in
	// a perturbed source (SetRawSource) to exercise the glitch-rejection
	// path below.
	rawSource func(power.Domain) uint64

	namespaceState
}

// namespaceState is a Namespace's mutable state. The accounting advances
// lazily on reads, so its cursor and every per-container account are world
// state that must rewind with the kernel.
type namespaceState struct {
	// Calibration toggle for the ablation study: when false, raw modeled
	// energy is returned without Formula 3's rescaling.
	calibrate bool

	lastUpdate float64
	lastRaw    [4]uint64 // indexed by power.Domain
	lastHostC  perfcount.Counters

	containers map[string]*acct
}

// acct is one container's accounting state.
type acct struct {
	path   string
	lastC  perfcount.Counters
	energy [4]float64 // accumulated µJ, indexed by power.Domain

	// Budget enforcement state (budget.go).
	budgetW   float64
	lastW     float64
	lastCPUNS float64
}

// New creates a power-based namespace for the host using a trained model.
func New(k *kernel.Kernel, model *Model) *Namespace {
	ns := &Namespace{k: k, model: model, rawSource: k.Meter().EnergyUJ}
	ns.calibrate = true
	ns.containers = make(map[string]*acct)
	for _, d := range []power.Domain{power.Package, power.Core, power.DRAM} {
		ns.lastRaw[d] = ns.rawSource(d)
	}
	ns.lastHostC, _ = k.Perf().Read("/")
	ns.lastUpdate = k.Now()
	return ns
}

// SetCalibration toggles Formula 3's on-the-fly calibration (ablation).
func (ns *Namespace) SetCalibration(on bool) { ns.calibrate = on }

// SetRawSource swaps the raw-counter read path used for calibration and
// resynchronizes the last-seen readings from the new source. Chaos
// harnesses install a perturbed source here; production code never calls
// it.
func (ns *Namespace) SetRawSource(read func(power.Domain) uint64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.rawSource = read
	for _, d := range []power.Domain{power.Package, power.Core, power.DRAM} {
		ns.lastRaw[d] = read(d)
	}
}

// Install activates the namespace on the host's pseudo filesystem: all
// subsequent energy_uj reads route through it.
func (ns *Namespace) Install(fs *pseudofs.FS) { fs.SetEnergyProvider(ns) }

// Register starts accounting for a container cgroup. The paper initializes
// perf_events at namespace creation with owner TASK_TOMBSTONE; here the
// cgroup's perf group already exists (the runtime created it) and we
// snapshot its current counters as the zero point.
func (ns *Namespace) Register(cgroupPath string) {
	c, _ := ns.k.Perf().Read(cgroupPath)
	ns.containers[cgroupPath] = &acct{
		path:  cgroupPath,
		lastC: c,
		// Snapshot cpuacct so the budget enforcer's first interval does
		// not divide a lifetime counter by one interval.
		lastCPUNS: ns.k.Cgroup(cgroupPath).CPUUsageNS,
	}
}

// Unregister stops accounting for a container.
func (ns *Namespace) Unregister(cgroupPath string) {
	delete(ns.containers, cgroupPath)
}

// update advances the per-container energy accounts to the current kernel
// time: collect counter deltas, model each container's energy, and
// calibrate against the raw RAPL delta (Formula 3). Callers must hold
// ns.mu. The per-container attributions are mutually independent, so the
// map iteration order cannot affect the outcome.
func (ns *Namespace) update() {
	now := ns.k.Now()
	dt := now - ns.lastUpdate
	if dt <= 0 {
		return
	}
	ns.lastUpdate = now

	hostC, _ := ns.k.Perf().Read("/")
	hostDelta := hostC.Sub(ns.lastHostC)
	ns.lastHostC = hostC

	type contDelta struct {
		a *acct
		c perfcount.Counters
	}
	deltas := make([]contDelta, 0, len(ns.containers))
	for _, a := range ns.containers {
		cur, ok := ns.k.Perf().Read(a.path)
		if !ok {
			continue
		}
		deltas = append(deltas, contDelta{a: a, c: cur.Sub(a.lastC)})
		a.lastC = cur
	}

	maxR := ns.k.Meter().MaxEnergyRangeUJ()
	for _, d := range []power.Domain{power.Package, power.Core, power.DRAM} {
		raw := ns.rawSource(d)
		rawDeltaU, kind := power.CounterDeltaKind(ns.lastRaw[d], raw, maxR)
		rawDelta := float64(rawDeltaU) // µJ
		ns.lastRaw[d] = raw

		// Glitch-sample rejection: a counter reset or regression makes
		// this interval's raw delta meaningless (a reset's delta only
		// covers the time since the restart; a regression's is zero).
		// Scaling the model by it would smear the error across every
		// container, so the interval falls back to pure model attribution
		// — Formula 2 without Formula 3 — and calibration resumes on the
		// next clean delta. This is what keeps ξ < 0.05 under chaos.
		calibrate := ns.calibrate && kind != power.DeltaReset && kind != power.DeltaRegression

		mHost := ns.model.Energy(d, hostDelta, dt) * 1e6 // µJ

		// A reset caught near the counter ceiling masquerades as a wrap
		// with delta maxRange−prev — orders of magnitude beyond anything
		// the host could burn. The namespace holds its own reference for
		// what the interval should have cost (Formula 2's host estimate),
		// so a wrap-classified raw delta wildly above it is rejected the
		// same way. Clean wraps sit within model error of mHost and are
		// untouched.
		if kind == power.DeltaWrapped && mHost > 0 && rawDelta > wrapCalibrationFactor*mHost {
			calibrate = false
		}
		for _, cd := range deltas {
			mCont := ns.model.Energy(d, cd.c, dt) * 1e6
			if mCont < 0 {
				mCont = 0
			}
			attributed := mCont
			if calibrate && mHost > 0 {
				attributed = mCont / mHost * rawDelta
			}
			cd.a.energy[d] += attributed
			if d == budgetDomain {
				ns.attributePower(cd.a, attributed, dt)
			}
		}
	}
}

// EnergyUJ implements pseudofs.EnergyProvider. Host-context reads see the
// raw hardware counter; container reads see only their partitioned energy.
// Containers that were never registered read zero forever — they have no
// power namespace and therefore no power visibility.
func (ns *Namespace) EnergyUJ(v pseudofs.View, d power.Domain) (uint64, error) {
	if v.IsHost() {
		return ns.k.Meter().EnergyUJ(d), nil
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.update()
	a, ok := ns.containers[v.CgroupPath]
	if !ok {
		return 0, nil
	}
	uj := a.energy[d]
	max := float64(ns.k.Meter().MaxEnergyRangeUJ())
	for uj >= max {
		uj -= max
	}
	return uint64(uj), nil
}

// Meter reads a container's current accumulated energy in µJ (package
// domain) without the pseudo-fs round trip.
func (ns *Namespace) Meter(cgroupPath string) (float64, error) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.update()
	a, ok := ns.containers[cgroupPath]
	if !ok {
		return 0, fmt.Errorf("powerns: %s not registered", cgroupPath)
	}
	return a.energy[power.Package], nil
}

// Registered returns the number of containers under accounting.
func (ns *Namespace) Registered() int { return len(ns.containers) }
