// Package power models the host's energy subsystem: an Intel-RAPL-like meter
// with package/core/DRAM domains exposed as accumulating micro-joule
// counters, a digital-temperature-sensor (DTS) thermal model per core, and a
// host-level power cap.
//
// The physics is deliberately *richer* than the defense's fitted model of
// Formula 2: true core power depends on retired instructions scaled by the
// cache- and branch-miss mix, plus a temperature-dependent leakage term the
// regression cannot see. That gives the power-based namespace a realistic
// residual to calibrate away (Fig. 8 evaluates exactly this error), instead
// of letting it trivially invert its own generator.
//
// Counters wrap at MaxEnergyRangeUJ like real RAPL MSRs; consumers (the
// synergistic attack's monitor, the defense's calibration loop) must handle
// wraparound.
package power

import (
	"fmt"
	"math"

	"repro/internal/perfcount"
)

// Domain selects a RAPL accounting domain.
type Domain int

// RAPL domains. Package is the sum of core, DRAM, and uncore energy.
const (
	Package Domain = iota + 1
	Core           // PP0: all cores
	DRAM
)

// String implements fmt.Stringer.
func (d Domain) String() string {
	switch d {
	case Package:
		return "package"
	case Core:
		return "core"
	case DRAM:
		return "dram"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// Config parameterizes a host's power physics. DefaultConfig returns values
// calibrated so that a fully-loaded server lands near the paper's observed
// per-server power band (Fig. 2: ~110–150 W per server).
type Config struct {
	Cores int

	// Idle floor, Watts.
	IdleCoreW   float64 // all-core idle power
	IdleDRAMW   float64
	UncoreW     float64 // constant uncore/package overhead (λ's physical origin)
	PlatformW   float64 // non-RAPL platform power (fans, VRs) included in wall power
	AmbientC    float64 // ambient temperature
	ThermalResC float64 // °C per Watt of core power
	ThermalTauS float64 // first-order thermal time constant, seconds
	LeakWPerC   float64 // leakage Watts per °C above ambient (model nonlinearity)

	// Energy per event, Joules. Core energy per instruction is
	// EPIBase + EPICacheStall·(CM/C) + EPIBranchStall·(BM/C), so core
	// energy is linear in instructions with a mix-dependent slope —
	// exactly the structure Figs. 6–7 report.
	EPIBase        float64
	EPICacheStall  float64
	EPIBranchStall float64
	EPJDRAMMiss    float64 // DRAM energy per LLC miss

	// MaxEnergyRangeUJ is the wrap point of the energy counters in
	// micro-joules; 0 selects the default (2^38 µJ ≈ 262 kJ, matching
	// common intel-rapl max_energy_range_uj magnitudes).
	MaxEnergyRangeUJ uint64
}

// DefaultConfig returns the calibrated 8-core server configuration used by
// the experiment harnesses.
func DefaultConfig() Config {
	return Config{
		Cores:            8,
		IdleCoreW:        6,
		IdleDRAMW:        3,
		UncoreW:          8,
		PlatformW:        65,
		AmbientC:         28,
		ThermalResC:      0.55,
		ThermalTauS:      12,
		LeakWPerC:        0.05,
		EPIBase:          1.05e-9,
		EPICacheStall:    60e-9,
		EPIBranchStall:   18e-9,
		EPJDRAMMiss:      11e-9,
		MaxEnergyRangeUJ: 1 << 38,
	}
}

// Meter integrates workload activity into RAPL energy counters and core
// temperatures. Create one per simulated host with New and drive it with
// Step once per clock tick.
type Meter struct {
	cfg Config
	meterState
}

// meterState is a Meter's mutable state.
type meterState struct {
	energyUJ [4]float64 // indexed by Domain; fractional accumulation pre-wrap
	lastW    [4]float64 // instantaneous Watts of the most recent step
	tempC    []float64  // per-core temperature
	limitW   float64    // package power cap; 0 = uncapped
}

// New returns a Meter for the given configuration. Zero-valued fields of cfg
// are replaced by DefaultConfig values so callers may override selectively.
func New(cfg Config) *Meter {
	def := DefaultConfig()
	if cfg.Cores == 0 {
		cfg.Cores = def.Cores
	}
	if cfg.IdleCoreW == 0 {
		cfg.IdleCoreW = def.IdleCoreW
	}
	if cfg.IdleDRAMW == 0 {
		cfg.IdleDRAMW = def.IdleDRAMW
	}
	if cfg.UncoreW == 0 {
		cfg.UncoreW = def.UncoreW
	}
	if cfg.PlatformW == 0 {
		cfg.PlatformW = def.PlatformW
	}
	if cfg.AmbientC == 0 {
		cfg.AmbientC = def.AmbientC
	}
	if cfg.ThermalResC == 0 {
		cfg.ThermalResC = def.ThermalResC
	}
	if cfg.ThermalTauS == 0 {
		cfg.ThermalTauS = def.ThermalTauS
	}
	if cfg.LeakWPerC == 0 {
		cfg.LeakWPerC = def.LeakWPerC
	}
	if cfg.EPIBase == 0 {
		cfg.EPIBase = def.EPIBase
	}
	if cfg.EPICacheStall == 0 {
		cfg.EPICacheStall = def.EPICacheStall
	}
	if cfg.EPIBranchStall == 0 {
		cfg.EPIBranchStall = def.EPIBranchStall
	}
	if cfg.EPJDRAMMiss == 0 {
		cfg.EPJDRAMMiss = def.EPJDRAMMiss
	}
	if cfg.MaxEnergyRangeUJ == 0 {
		cfg.MaxEnergyRangeUJ = def.MaxEnergyRangeUJ
	}
	m := &Meter{cfg: cfg, meterState: meterState{tempC: make([]float64, cfg.Cores)}}
	for i := range m.tempC {
		m.tempC[i] = cfg.AmbientC
	}
	return m
}

// Config returns the meter's effective configuration.
func (m *Meter) Config() Config { return m.cfg }

// SetPowerLimit sets the package power cap in Watts (0 disables capping).
// This models host-level RAPL capping, which the paper notes responds
// immediately — unlike rack-level capping's minute-scale lag.
func (m *Meter) SetPowerLimit(w float64) { m.limitW = w }

// PowerLimit returns the configured package cap (0 = uncapped).
func (m *Meter) PowerLimit() float64 { return m.limitW }

// Throttle scales the requested activity so that the resulting package power
// would not exceed the cap. It returns the admitted rates and the applied
// factor in (0,1]. With no cap configured it is the identity.
func (m *Meter) Throttle(agg perfcount.Rates) (perfcount.Rates, float64) {
	if m.limitW <= 0 {
		return agg, 1
	}
	p := m.instPower(agg)
	if p.pkg <= m.limitW {
		return agg, 1
	}
	// Dynamic power scales ~linearly with activity; solve for the factor
	// that brings package power to the cap, flooring at 5% duty.
	idle := m.idlePkgW()
	dyn := p.pkg - idle
	budget := m.limitW - idle
	f := budget / dyn
	if f < 0.05 {
		f = 0.05
	}
	return agg.Times(f), f
}

type instPower struct {
	core, dram, pkg float64
}

func (m *Meter) idlePkgW() float64 {
	return m.cfg.IdleCoreW + m.cfg.IdleDRAMW + m.cfg.UncoreW
}

// instPower computes instantaneous domain power for the given aggregate
// activity, including the temperature-dependent leakage term evaluated at
// the current thermal state.
func (m *Meter) instPower(agg perfcount.Rates) instPower {
	cmr, bmr := 0.0, 0.0
	if agg.Cycles > 0 {
		cmr = agg.CacheMisses / agg.Cycles
		bmr = agg.BranchMisses / agg.Cycles
	}
	epi := m.cfg.EPIBase + m.cfg.EPICacheStall*cmr + m.cfg.EPIBranchStall*bmr
	var leak float64
	for _, t := range m.tempC {
		if d := t - m.cfg.AmbientC; d > 0 {
			leak += m.cfg.LeakWPerC * d / float64(len(m.tempC))
		}
	}
	core := m.cfg.IdleCoreW + epi*agg.Instructions + leak
	dram := m.cfg.IdleDRAMW + m.cfg.EPJDRAMMiss*agg.CacheMisses
	return instPower{
		core: core,
		dram: dram,
		pkg:  core + dram + m.cfg.UncoreW,
	}
}

// Step integrates dt seconds of the given aggregate activity (already summed
// across all tasks on the host) into the energy counters and advances the
// thermal model. perCore optionally distributes utilization for the DTS
// model; pass nil for an even spread.
func (m *Meter) Step(agg perfcount.Rates, dt float64, perCore []float64) {
	if dt <= 0 {
		panic(fmt.Sprintf("power: Step with dt=%g", dt))
	}
	p := m.instPower(agg)
	m.lastW[Core] = p.core
	m.lastW[DRAM] = p.dram
	m.lastW[Package] = p.pkg

	toUJ := dt * 1e6
	m.accumulate(Core, p.core*toUJ)
	m.accumulate(DRAM, p.dram*toUJ)
	m.accumulate(Package, p.pkg*toUJ)

	// Thermal: each core relaxes toward ambient + R·(its share of core
	// dynamic power) with time constant tau.
	n := float64(m.cfg.Cores)
	dyn := p.core - m.cfg.IdleCoreW
	if dyn < 0 {
		dyn = 0
	}
	alpha := 1 - math.Exp(-dt/m.cfg.ThermalTauS)
	for i := range m.tempC {
		share := 1 / n
		if perCore != nil && i < len(perCore) {
			share = perCore[i]
		}
		target := m.cfg.AmbientC + m.cfg.ThermalResC*(m.cfg.IdleCoreW/n+dyn*share)*n
		m.tempC[i] += (target - m.tempC[i]) * alpha
	}
}

func (m *Meter) accumulate(d Domain, uj float64) {
	m.energyUJ[d] += uj
	max := float64(m.cfg.MaxEnergyRangeUJ)
	for m.energyUJ[d] >= max {
		m.energyUJ[d] -= max
	}
}

// EnergyUJ returns the accumulated (wrapping) energy counter for the domain
// in micro-joules, exactly as the energy_uj pseudo-file exposes it.
func (m *Meter) EnergyUJ(d Domain) uint64 { return uint64(m.energyUJ[d]) }

// MaxEnergyRangeUJ returns the counter wrap point, mirroring the
// max_energy_range_uj sysfs file.
func (m *Meter) MaxEnergyRangeUJ() uint64 { return m.cfg.MaxEnergyRangeUJ }

// Power returns the instantaneous power, in Watts, computed by the most
// recent Step for the domain.
func (m *Meter) Power(d Domain) float64 { return m.lastW[d] }

// WallPower returns instantaneous whole-server power: the RAPL package power
// plus the constant platform overhead. Rack PDUs and circuit breakers meter
// this quantity.
func (m *Meter) WallPower() float64 { return m.lastW[Package] + m.cfg.PlatformW }

// CoreTempC returns the DTS temperature of the given core in °C; it panics
// on an out-of-range core index.
func (m *Meter) CoreTempC(core int) float64 {
	if core < 0 || core >= len(m.tempC) {
		panic(fmt.Sprintf("power: core %d out of range [0,%d)", core, len(m.tempC)))
	}
	return m.tempC[core]
}

// DeltaKind classifies what happened to a wrapping energy counter between
// two readings. Real RAPL MSRs do not only wrap: they reset to zero across
// power events (suspend, firmware update, PMU re-init), and flaky read
// paths can return a slightly stale value. The old CounterDelta computed
// every cur < prev as a wrap, which turns a reset into a bogus
// near-maxRange delta — a several-hundred-kJ phantom burn in one sample.
type DeltaKind int

// Delta classifications.
const (
	// DeltaForward: cur >= prev, the ordinary monotone case.
	DeltaForward DeltaKind = iota
	// DeltaWrapped: the counter passed maxRange; the implied consumption
	// maxRange-prev+cur is plausibly small (≤ maxRange/2).
	DeltaWrapped
	// DeltaReset: the counter restarted from (near) zero; the only
	// defensible estimate of consumption since prev is cur itself.
	DeltaReset
	// DeltaRegression: cur is slightly below prev — a stale or torn read,
	// not a wrap and not a reset. The consumed estimate is 0.
	DeltaRegression
)

// String implements fmt.Stringer.
func (k DeltaKind) String() string {
	switch k {
	case DeltaForward:
		return "forward"
	case DeltaWrapped:
		return "wrapped"
	case DeltaReset:
		return "reset"
	case DeltaRegression:
		return "regression"
	default:
		return fmt.Sprintf("DeltaKind(%d)", int(k))
	}
}

// regressionEpsilon is the largest backward step still attributed to a
// stale/torn read rather than a reset: 1/65536 of the counter range
// (≈ 4 mJ at the default 2^38 µJ range — far below one tick of idle burn).
func regressionEpsilon(maxRange uint64) uint64 { return maxRange >> 16 }

// CounterDeltaKind computes the energy consumed between two wrapping
// counter readings and classifies the transition. The heuristic:
//
//   - cur >= prev: forward, delta = cur - prev.
//   - cur < prev and the implied wrap consumption maxRange-prev+cur is
//     ≤ maxRange/4: a genuine wrap. A sampler that keeps up with the
//     counter (ms–s cadence vs. the hours-long wrap period) never consumes
//     a quarter of the range between two reads, so a larger implied
//     consumption means the backward step has another cause.
//   - prev - cur ≤ maxRange>>16: a tiny regression — stale or torn read;
//     delta 0.
//   - otherwise: a reset-to-zero (or near zero); delta = cur, the energy
//     accumulated since the restart.
func CounterDeltaKind(prev, cur, maxRange uint64) (uint64, DeltaKind) {
	if cur >= prev {
		return cur - prev, DeltaForward
	}
	if maxRange > prev {
		if wrap := maxRange - prev + cur; wrap <= maxRange/4 {
			return wrap, DeltaWrapped
		}
	}
	if prev-cur <= regressionEpsilon(maxRange) {
		return 0, DeltaRegression
	}
	return cur, DeltaReset
}

// CounterDelta computes the energy consumed between two wrapping counter
// readings, handling wraps, resets, and small regressions. Attack and
// defense monitors use it when differencing energy_uj samples.
func CounterDelta(prev, cur, maxRange uint64) uint64 {
	d, _ := CounterDeltaKind(prev, cur, maxRange)
	return d
}
