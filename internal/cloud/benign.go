package cloud

import (
	"math"

	"repro/internal/fastrand"
	"repro/internal/kernel"
	"repro/internal/perfcount"
	"repro/internal/workload"
)

// BenignConfig shapes the background tenant load on each server.
type BenignConfig struct {
	// BaseUtil and PeakUtil bound the diurnal utilization swing (fraction
	// of cores). Defaults reproduce the ~20–30% average utilization that
	// Barroso reports with peaks that drive Fig. 2's 35% power swing.
	BaseUtil float64
	PeakUtil float64
	// FlashCrowdPerDay is the expected number of short demand spikes per
	// day (news events, sales) superimposed on the diurnal curve;
	// FlashMinS/FlashMaxS bound each spike's duration.
	FlashCrowdPerDay float64
	FlashMinS        float64
	FlashMaxS        float64
	// SharedFlash makes flash crowds datacenter-wide events hitting every
	// server simultaneously (a popular service's surge), instead of
	// independent per-server bumps. Correlated crests are what give the
	// synergistic attack its clean trigger in Fig. 3.
	SharedFlash bool
	// PhaseJitterS de-synchronizes servers' diurnal peaks.
	PhaseJitterS float64
}

func (c *BenignConfig) fillDefaults() {
	if c.BaseUtil == 0 {
		c.BaseUtil = 0.18
	}
	if c.PeakUtil == 0 {
		c.PeakUtil = 0.75
	}
	if c.FlashCrowdPerDay == 0 {
		c.FlashCrowdPerDay = 6
	}
	if c.PhaseJitterS == 0 {
		c.PhaseJitterS = 3 * 3600
	}
	if c.FlashMinS == 0 {
		c.FlashMinS = 180
	}
	if c.FlashMaxS == 0 {
		c.FlashMaxS = 900
	}
}

// FlashDriver generates datacenter-wide flash-crowd events shared by all
// servers. Register it on the clock before any BenignLoad.
type FlashDriver struct {
	cfg BenignConfig
	flashState
}

// flashState is a FlashDriver's mutable state.
type flashState struct {
	rng        fastrand.Rand
	flashUntil float64
	boost      float64
}

// NewFlashDriver creates the shared event process.
func NewFlashDriver(cfg BenignConfig, seed int64) *FlashDriver {
	cfg.fillDefaults()
	return &FlashDriver{cfg: cfg, flashState: flashState{rng: *fastrand.New(seed)}}
}

// Tick implements simclock.Ticker.
func (f *FlashDriver) Tick(now, dt float64) {
	if now < f.flashUntil {
		return
	}
	f.boost = 0
	day := 24 * 3600.0
	p := f.cfg.FlashCrowdPerDay * dt / day
	if f.rng.Float64() < p {
		f.flashUntil = now + f.cfg.FlashMinS + f.rng.Float64()*(f.cfg.FlashMaxS-f.cfg.FlashMinS)
		f.boost = 0.15 + f.rng.Float64()*0.25
	}
}

// Boost returns the current shared flash-crowd utilization boost.
func (f *FlashDriver) Boost() float64 { return f.boost }

// BenignLoad drives one server's background tenants: a demand level that
// follows a diurnal sinusoid plus noise plus occasional flash crowds,
// executed as a mixed-profile task on the server's kernel. It implements
// simclock.Ticker and must be registered before the kernel so demand is in
// place when the kernel integrates the step.
type BenignLoad struct {
	cfg      BenignConfig
	srv      *Server
	task     *kernel.Task
	mixRates perfcount.Rates // per-core activity blend of the aggregate task
	phase    float64
	shared   *FlashDriver // non-nil when flashes are datacenter-wide

	benignState
}

// benignState is a BenignLoad's mutable state.
type benignState struct {
	rng        fastrand.Rand
	flashUntil float64
	flashBoost float64
}

// SetSharedFlash switches the load to the shared event process.
func (b *BenignLoad) SetSharedFlash(f *FlashDriver) { b.shared = f }

// NewBenignLoad creates the generator for one server.
func NewBenignLoad(srv *Server, cfg BenignConfig, seed int64) *BenignLoad {
	cfg.fillDefaults()
	b := &BenignLoad{cfg: cfg, srv: srv, benignState: benignState{rng: *fastrand.New(seed)}}
	b.phase = (b.rng.Float64()*2 - 1) * cfg.PhaseJitterS
	// The benign tenants appear as one aggregate task in the root cgroup:
	// a blend of compute- and memory-bound work.
	mix := workload.Prime.Rates.Times(0.55).Plus(workload.Libquantum.Rates.Times(0.45))
	b.task = srv.Kernel.Spawn("benign-tenants", srv.Kernel.InitNS(), "/", 0,
		mix.Times(0))
	b.mixRates = mix
	return b
}

// Demand returns the current benign demand in cores.
func (b *BenignLoad) Demand() float64 { return b.task.DemandCores }

// Tick recomputes the benign demand for this step.
func (b *BenignLoad) Tick(now, dt float64) {
	cores := float64(b.srv.Kernel.Options().Cores)
	day := 24 * 3600.0

	// Diurnal curve: trough at ~04:00, crest at ~20:00 local time.
	pos := math.Sin(2 * math.Pi * (now + b.phase - 0.3*day) / day)
	util := b.cfg.BaseUtil + (b.cfg.PeakUtil-b.cfg.BaseUtil)*(0.5+0.5*pos)

	// Weekly modulation: weekends (days 6,7) run ~20% lighter.
	dayIdx := int(now/day) % 7
	if dayIdx >= 5 {
		util *= 0.8
	}

	// Flash crowds: either the shared datacenter-wide process or an
	// independent per-server Poisson process.
	if b.shared != nil {
		util += b.shared.Boost()
	} else {
		if now >= b.flashUntil {
			b.flashBoost = 0
			p := b.cfg.FlashCrowdPerDay * dt / day
			if b.rng.Float64() < p {
				b.flashUntil = now + b.cfg.FlashMinS + b.rng.Float64()*(b.cfg.FlashMaxS-b.cfg.FlashMinS)
				b.flashBoost = 0.15 + b.rng.Float64()*0.25
			}
		}
		util += b.flashBoost
	}

	// Noise.
	util *= 1 + (b.rng.Float64()*2-1)*0.06
	if util < 0.02 {
		util = 0.02
	}
	if util > 0.95 {
		util = 0.95
	}

	demand := util * cores
	b.task.DemandCores = demand
	b.task.Rates = b.mixRates.Times(demand)
}
