package power

import "math"

// GovernorConfig sizes the per-core DVFS model. The zero value of any
// field selects the default, mirroring Config's zero-field defaulting.
type GovernorConfig struct {
	Cores int
	// MinKHz/MaxKHz bound the frequency range (cpuinfo_min_freq /
	// cpuinfo_max_freq). Defaults model an 800 MHz – 3.4 GHz part.
	MinKHz uint64
	MaxKHz uint64
	// StepKHz is the P-state grid: published frequencies are quantized to
	// this quantum, so scaling_cur_freq moves in discrete transitions the
	// way real cpufreq stats count them.
	StepKHz uint64
	// SlewKHzPerSec bounds how fast the continuous target can move — the
	// governor's ramp, which is what makes frequency a *trace* channel
	// (load history, not just instantaneous load).
	SlewKHzPerSec float64
}

// Governor defaults.
const (
	DefaultMinKHz        = 800_000
	DefaultMaxKHz        = 3_400_000
	DefaultStepKHz       = 100_000
	DefaultSlewKHzPerSec = 8_000_000
)

// Governor is the simulated per-core DVFS frequency governor (a
// schedutil-style load follower). The kernel tick pipeline drives Step
// with the same per-core utilizations it derived for CPU-time accounting;
// the governor ramps each core's frequency toward a load-proportional
// target and quantizes to the P-state grid.
//
// Determinism contract: Step is pure arithmetic over its inputs — no RNG
// draws, no feedback into the energy Meter — so adding the governor to a
// tick changes neither the kernel's jitter stream nor any existing
// rendered byte, and its own outputs are byte-identical at any tick-shard
// worker count.
type Governor struct {
	cfg GovernorConfig
	governorState
}

// governorState is a Governor's mutable state.
type governorState struct {
	// cur is the continuous (pre-quantization) per-core frequency the slew
	// limiter integrates; kHz holds the published quantized values and
	// trans the per-core transition counters (cpufreq stats total_trans).
	cur        []float64
	kHz        []uint64
	trans      []uint64
	totalTrans uint64
}

// NewGovernor builds a governor with all cores parked at the minimum
// frequency (an idle machine at boot).
func NewGovernor(cfg GovernorConfig) *Governor {
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if cfg.MinKHz == 0 {
		cfg.MinKHz = DefaultMinKHz
	}
	if cfg.MaxKHz <= cfg.MinKHz {
		cfg.MaxKHz = DefaultMaxKHz
	}
	if cfg.StepKHz == 0 {
		cfg.StepKHz = DefaultStepKHz
	}
	if cfg.SlewKHzPerSec <= 0 {
		cfg.SlewKHzPerSec = DefaultSlewKHzPerSec
	}
	g := &Governor{cfg: cfg, governorState: governorState{
		cur:   make([]float64, cfg.Cores),
		kHz:   make([]uint64, cfg.Cores),
		trans: make([]uint64, cfg.Cores),
	}}
	for i := range g.cur {
		g.cur[i] = float64(cfg.MinKHz)
		g.kHz[i] = cfg.MinKHz
	}
	return g
}

// quantize snaps a continuous frequency onto the P-state grid (nearest
// step, clamped to [min, max]).
func (g *Governor) quantize(f float64) uint64 {
	min, max, step := float64(g.cfg.MinKHz), float64(g.cfg.MaxKHz), float64(g.cfg.StepKHz)
	if f < min {
		f = min
	}
	if f > max {
		f = max
	}
	q := min + math.Round((f-min)/step)*step
	if q > max {
		q = max
	}
	return uint64(q)
}

// Step advances every core one tick: perCore utilizations in [0,1] (the
// schedule section's per-core demand), capFactor the meter's thermal/power
// cap, dt the tick length in simulated seconds. Frequency targets are
// load-proportional; a throttled machine lowers them the same way it
// lowers effective CPU time.
func (g *Governor) Step(perCore []float64, capFactor, dt float64) {
	maxDelta := g.cfg.SlewKHzPerSec * dt
	span := float64(g.cfg.MaxKHz - g.cfg.MinKHz)
	for i := range g.cur {
		util := 0.0
		if i < len(perCore) {
			util = perCore[i] * capFactor
		}
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		target := float64(g.cfg.MinKHz) + util*span
		d := target - g.cur[i]
		if d > maxDelta {
			d = maxDelta
		} else if d < -maxDelta {
			d = -maxDelta
		}
		g.cur[i] += d
		if q := g.quantize(g.cur[i]); q != g.kHz[i] {
			g.kHz[i] = q
			g.trans[i]++
			g.totalTrans++
		}
	}
}

// CurKHz returns core's published scaling_cur_freq in kHz. Out-of-range
// cores read as the minimum frequency (absent cores are parked).
func (g *Governor) CurKHz(core int) uint64 {
	if core < 0 || core >= len(g.kHz) {
		return g.cfg.MinKHz
	}
	return g.kHz[core]
}

// Transitions returns core's cpufreq stats total_trans counter.
func (g *Governor) Transitions(core int) uint64 {
	if core < 0 || core >= len(g.trans) {
		return 0
	}
	return g.trans[core]
}

// TotalTransitions sums the per-core transition counters.
func (g *Governor) TotalTransitions() uint64 { return g.totalTrans }

// MinKHz returns cpuinfo_min_freq.
func (g *Governor) MinKHz() uint64 { return g.cfg.MinKHz }

// MaxKHz returns cpuinfo_max_freq.
func (g *Governor) MaxKHz() uint64 { return g.cfg.MaxKHz }

// StepKHz returns the P-state quantum.
func (g *Governor) StepKHz() uint64 { return g.cfg.StepKHz }

// Name returns the governor's scaling_governor identity.
func (g *Governor) Name() string { return "schedutil" }
