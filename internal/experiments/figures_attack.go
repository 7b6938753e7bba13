package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/texttable"
	"repro/internal/workload"
)

// profileByName resolves a workload profile (thin wrapper so tables.go can
// stay free of the workload import details).
func profileByName(name string) (workload.Profile, bool) { return workload.ByName(name) }

// Fig2Result is the one-week power trace of eight servers (Fig. 2).
type Fig2Result struct {
	// Avg30s is the whole-week series averaged in 30 s windows (the
	// paper's top panel).
	Avg30s []float64
	// Zoom1s is a one-hour 1 s-resolution slice around the weekly peak
	// (the bottom panel).
	Zoom1s []float64
	// PeakW and MinW summarize the 30 s series; SwingPct is
	// (max-min)/max·100.
	PeakW, MinW, SwingPct float64
}

// Fig2 simulates eight servers under benign diurnal load for the given
// number of days (the paper uses 7) and reports the aggregate power trace.
func Fig2(days int) *Fig2Result {
	dc := cloud.New(cloud.Config{Racks: 1, ServersPerRack: 8, Seed: 2026})
	rackPower := func() float64 { return dc.Racks[0].Power() }

	var oneSec []float64
	horizon := float64(days) * 24 * 3600
	// 1 s steps are the measurement resolution; to keep the experiment
	// fast we step at 5 s and sample, which leaves the 30 s averaging of
	// the paper intact (6 samples per window).
	for now := 5.0; now <= horizon; now += 5 {
		dc.Clock.Advance(5)
		oneSec = append(oneSec, rackPower())
	}
	avg30 := stats.WindowAverage(oneSec, 6)
	sum := stats.Summarize(avg30)

	// Zoom: one hour around the global 5 s-resolution peak.
	peakIdx := 0
	for i, v := range oneSec {
		if v > oneSec[peakIdx] {
			peakIdx = i
		}
	}
	lo := peakIdx - 360
	if lo < 0 {
		lo = 0
	}
	hi := peakIdx + 360
	if hi > len(oneSec) {
		hi = len(oneSec)
	}
	return &Fig2Result{
		Avg30s:   avg30,
		Zoom1s:   append([]float64(nil), oneSec[lo:hi]...),
		PeakW:    sum.Max,
		MinW:     sum.Min,
		SwingPct: (sum.Max - sum.Min) / sum.Max * 100,
	}
}

// String summarizes the trace the way the paper narrates Fig. 2, with a
// terminal sparkline standing in for the plotted panels.
func (r *Fig2Result) String() string {
	return fmt.Sprintf(
		"FIG 2: power of 8 servers (30 s averages): min %.0f W, peak %.0f W, swing %.1f%% (paper: 899→1199 W, 34.7%%)\n"+
			"  week   %s\n"+
			"  peak±30min %s\n",
		r.MinW, r.PeakW, r.SwingPct,
		texttable.Sparkline(r.Avg30s, 72), texttable.Sparkline(r.Zoom1s, 72))
}

// Fig3Result compares the synergistic attack against the periodic baseline
// on identical worlds (Fig. 3).
type Fig3Result struct {
	Synergistic     attack.Result
	Periodic        attack.Result
	BackgroundPeakW float64
}

// Fig3 runs both strategies for 3000 s (periodic interval 300 s, as in the
// paper) over a rack of eight 24-core servers during the evening ramp. The
// background includes datacenter-wide flash-crowd events — the sharp
// correlated crests the synergistic attack rides. One seeded run is
// reported, like the paper's single trace; Fig3Sweep gives the multi-seed
// statistics.
func Fig3() (*Fig3Result, error) {
	return fig3WithSeed(1362, chaos.Spec{})
}

// Fig3Chaos is Fig3 with every monitored host's observation surface armed
// with deterministic fault injection: the synergistic attacker's power
// monitors must ride flaky energy counters (resets, torn reads, transient
// errors) without losing the superimposition advantage. The zero Spec is
// exactly Fig3.
func Fig3Chaos(spec chaos.Spec) (*Fig3Result, error) {
	return fig3WithSeed(1362, spec)
}

func fig3WithSeed(seed int64, spec chaos.Spec) (*Fig3Result, error) {
	// The three campaigns need three copies of the same warmed-up world.
	// The trio shares one build: the world comes from the snapshot pool
	// (so repeated sweeps skip even the first build) and is rewound
	// between campaigns — the restore contract makes each campaign
	// byte-identical to running on a fresh build, and the container
	// handles stay valid across restores.
	w, err := checkoutWorld(poolKey{kind: "fig3", chaos: spec, seed: seed},
		func() (*cloud.Datacenter, any, error) {
			// 24-core servers keep bursts below host saturation, so the
			// superimposition advantage is visible in the rack peak.
			dc := cloud.New(cloud.Config{
				Racks: 1, ServersPerRack: 8, CoresPerServer: 24, Seed: seed,
				BreakerRatedW: 1e9,
				Benign:        cloud.BenignConfig{FlashCrowdPerDay: 48, FlashMinS: 60, FlashMaxS: 240, SharedFlash: true},
				Chaos:         spec,
			})
			dc.Clock.Run(16*3600, 30) // reach the evening demand ramp
			agg, err := attack.SpreadAcrossRack(dc, "mallory", 6, 4, 3600, 600)
			if err != nil {
				return nil, nil, err
			}
			return dc, fig3World{rack: agg.Kept[0].Server.Rack, cs: agg.Containers()}, nil
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 3 build: %w", err)
	}
	defer w.release()
	dc := w.dc
	rack, cs := w.aux.(fig3World).rack, w.aux.(fig3World).cs
	snap := w.snap
	if snap == nil {
		// A throwaway world (the key is checked out elsewhere) is
		// captured here so the trio still shares one build.
		snap = dc.Snapshot()
	}
	reset := func() {
		dc.Restore(snap)
		snapshotRestores.Add(1)
	}
	// A selective trigger: learn the background for ten minutes, then
	// strike only when the aggregate of the monitored hosts is within 5%
	// of the highest power ever observed — the paper's synergistic attack
	// used two trials in 3000 s.
	cfg := attack.DefaultConfig()
	cfg.TriggerNearMax = 0.95
	cfg.WarmupSeconds = 600
	cfg.CooldownSeconds = 240
	syn, err := attack.RunSynergistic(dc, rack, cs, cfg, 3000)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 3 synergistic: %w", err)
	}

	reset()
	per := attack.RunPeriodic(dc, rack, cs, attack.DefaultConfig(), 3000, 300)

	// Background-only reference for the same window.
	reset()
	var bgPeak float64
	for t := 0; t < 3000; t++ {
		dc.Clock.Advance(1)
		if w := rack.Power(); w > bgPeak {
			bgPeak = w
		}
	}
	return &Fig3Result{Synergistic: syn, Periodic: per, BackgroundPeakW: bgPeak}, nil
}

// fig3World is the aux payload a Fig. 3 world carries through the
// snapshot pool: the monitored rack and the attacker containers.
type fig3World struct {
	rack *cloud.Rack
	cs   []*container.Container
}

// String reports the comparison the way the paper does, with sparklines of
// both campaigns' rack-power series.
func (r *Fig3Result) String() string {
	return fmt.Sprintf(
		"FIG 3: 8 servers under attack over 3000 s\n"+
			"  background-only peak: %.0f W\n"+
			"  synergistic: peak %.0f W in %d trials (%.0f attack core-seconds)\n"+
			"    %s\n"+
			"  periodic   : peak %.0f W in %d trials (%.0f attack core-seconds)\n"+
			"    %s\n"+
			"  (paper: synergistic 1359 W in 2 trials vs periodic ≤1280 W in 9)\n",
		r.BackgroundPeakW,
		r.Synergistic.PeakW, r.Synergistic.Trials, r.Synergistic.AttackCoreSeconds,
		texttable.Sparkline(r.Synergistic.Series, 72),
		r.Periodic.PeakW, r.Periodic.Trials, r.Periodic.AttackCoreSeconds,
		texttable.Sparkline(r.Periodic.Series, 72))
}

// Fig3SweepResult aggregates the strategy comparison across seeds — an
// extension beyond the paper's single run that shows the advantage is not
// one lucky draw.
type Fig3SweepResult struct {
	Seeds          int
	SynWins, Ties  int
	MeanPeakDeltaW float64 // synergistic − periodic
	MeanTrialRatio float64 // periodic / synergistic
	MeanCostRatio  float64 // periodic / synergistic core-seconds
}

// Fig3Sweep repeats Fig. 3 across n seeds (0 = 5). Every seed builds its
// own trio of worlds with per-seed RNGs — share-nothing by construction —
// so the per-seed results are fanned out over workers (the -j of
// cmd/powersim) while the floating-point reduction below runs over the
// ordered result slice, keeping the statistics bit-identical to the serial
// loop at any worker count. Cancelling ctx stops dispatching seeds, so a
// daemon shutdown does not orphan the sweep.
func Fig3Sweep(ctx context.Context, n, workers int) (*Fig3SweepResult, error) {
	if n <= 0 {
		n = 5
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = 1360 + int64(i)
	}
	results, err := parallel.MapCtx(ctx, workers, seeds, func(_ context.Context, _ int, seed int64) (*Fig3Result, error) {
		return fig3WithSeed(seed, chaos.Spec{})
	})
	if err != nil {
		return nil, err
	}

	// Ordered reduction: accumulate in seed order, never in completion
	// order, so the sums are exactly those of the serial loop.
	res := &Fig3SweepResult{Seeds: n}
	var deltaSum, trialSum, costSum float64
	for _, r := range results {
		d := r.Synergistic.PeakW - r.Periodic.PeakW
		deltaSum += d
		tieBand := r.Periodic.PeakW * 0.005 // within 0.5% is a tie
		switch {
		case d > tieBand:
			res.SynWins++
		case d >= -tieBand:
			res.Ties++
		}
		if r.Synergistic.Trials > 0 {
			trialSum += float64(r.Periodic.Trials) / float64(r.Synergistic.Trials)
		}
		if r.Synergistic.AttackCoreSeconds > 0 {
			costSum += r.Periodic.AttackCoreSeconds / r.Synergistic.AttackCoreSeconds
		}
	}
	res.MeanPeakDeltaW = deltaSum / float64(n)
	res.MeanTrialRatio = trialSum / float64(n)
	res.MeanCostRatio = costSum / float64(n)
	return res, nil
}

// String summarizes the sweep.
func (r *Fig3SweepResult) String() string {
	return fmt.Sprintf(
		"FIG 3 (sweep over %d seeds): synergistic wins peak %d×, ties %d×; mean peak Δ %+.0f W; periodic uses %.1f× the trials and %.1f× the metered cost\n",
		r.Seeds, r.SynWins, r.Ties, r.MeanPeakDeltaW, r.MeanTrialRatio, r.MeanCostRatio)
}

// Fig4Result is the single-server co-resident aggregation experiment.
type Fig4Result struct {
	// StepWatts[i] is the server's power with i attack containers running
	// (i = 0..3).
	StepWatts []float64
	Launched  int
}

// Fig4 aggregates three containers onto one 16-core server via repeated
// launch/verify/terminate and turns them on one at a time, each running
// four copies of Prime.
func Fig4() (*Fig4Result, error) {
	dc := cloud.New(cloud.Config{
		Racks: 1, ServersPerRack: 4, CoresPerServer: 16, Seed: 230,
		Benign: cloud.BenignConfig{BaseUtil: 0.12, PeakUtil: 0.3},
	})
	agg, err := attack.AggregateCoResident(dc, "mallory", 3, 4, 300)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 4: %w", err)
	}
	srv := agg.Kept[0].Server
	prime, _ := workload.ByName("prime")

	res := &Fig4Result{Launched: agg.Launched}
	settle := func() float64 {
		var w float64
		for i := 0; i < 60; i++ {
			dc.Clock.Advance(1)
			w += srv.Kernel.Meter().WallPower()
		}
		return w / 60
	}
	res.StepWatts = append(res.StepWatts, settle())
	for _, c := range agg.Containers() {
		c.Run(prime, 4)
		res.StepWatts = append(res.StepWatts, settle())
	}
	return res, nil
}

// String reports the per-container power staircase.
func (r *Fig4Result) String() string {
	s := fmt.Sprintf("FIG 4: single server, %d launches to aggregate 3 co-resident containers\n", r.Launched)
	for i, w := range r.StepWatts {
		s += fmt.Sprintf("  %d attack containers: %.0f W\n", i, w)
	}
	s += "  (paper: ≈+40 W per container, ~230 W with three)\n"
	return s
}
