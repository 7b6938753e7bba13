package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/container"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/power"
	"repro/internal/powerns"
	"repro/internal/pseudofs"
	"repro/internal/stats"
	"repro/internal/texttable"
	"repro/internal/workload"
)

// FitLine is one benchmark's fitted energy relation (a line of Fig. 6/7).
type FitLine struct {
	Benchmark string
	Slope     float64
	Intercept float64
	R2        float64
	Points    int
}

// Fig6Result holds the per-benchmark core-energy-vs-instructions fits.
type Fig6Result struct {
	Lines []FitLine
}

// Fig6 reproduces the core power modeling relation: for each modeling
// benchmark, core energy per interval against retired instructions.
func Fig6() (*Fig6Result, error) {
	_, samples, err := powerns.Train(powerns.TrainOptions{Seed: 6})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 6: %w", err)
	}
	res := &Fig6Result{}
	for _, prof := range workload.ModelingSet() {
		var xs [][]float64
		var ys []float64
		for _, s := range samples {
			if s.Profile != prof.Name {
				continue
			}
			xs = append(xs, []float64{s.Counters.Instructions})
			ys = append(ys, s.ECoreJ)
		}
		m, err := stats.Fit(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig 6 fit %s: %w", prof.Name, err)
		}
		res.Lines = append(res.Lines, FitLine{
			Benchmark: prof.Name, Slope: m.Coef[0], Intercept: m.Intercept,
			R2: m.R2, Points: m.N,
		})
	}
	return res, nil
}

// String renders the fits.
func (r *Fig6Result) String() string {
	tb := texttable.New("Benchmark", "J/instr (slope)", "Intercept (J)", "R²", "Points")
	for _, l := range r.Lines {
		tb.Row(l.Benchmark, fmt.Sprintf("%.3g", l.Slope), fmt.Sprintf("%.2f", l.Intercept),
			fmt.Sprintf("%.4f", l.R2), fmt.Sprintf("%d", l.Points))
	}
	return "FIG 6: core energy is linear in retired instructions; slope depends on the benchmark\n" + tb.String()
}

// Fig7Result holds the DRAM-energy-vs-cache-miss fit across all benchmarks.
type Fig7Result struct {
	Line     FitLine
	PerBench []FitLine
}

// Fig7 reproduces the DRAM modeling relation.
func Fig7() (*Fig7Result, error) {
	_, samples, err := powerns.Train(powerns.TrainOptions{Seed: 7})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 7: %w", err)
	}
	var xs [][]float64
	var ys []float64
	for _, s := range samples {
		xs = append(xs, []float64{s.Counters.CacheMisses})
		ys = append(ys, s.EDRAMJ)
	}
	m, err := stats.Fit(xs, ys)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 7 fit: %w", err)
	}
	res := &Fig7Result{Line: FitLine{Benchmark: "all", Slope: m.Coef[0], Intercept: m.Intercept, R2: m.R2, Points: m.N}}
	for _, prof := range workload.ModelingSet() {
		var bx [][]float64
		var by []float64
		for _, s := range samples {
			if s.Profile != prof.Name {
				continue
			}
			bx = append(bx, []float64{s.Counters.CacheMisses})
			by = append(by, s.EDRAMJ)
		}
		bm, err := stats.Fit(bx, by)
		if err != nil {
			continue // near-zero-miss benchmarks (idle loop) are collinear
		}
		res.PerBench = append(res.PerBench, FitLine{Benchmark: prof.Name, Slope: bm.Coef[0], Intercept: bm.Intercept, R2: bm.R2, Points: bm.N})
	}
	return res, nil
}

// String renders the global fit.
func (r *Fig7Result) String() string {
	s := fmt.Sprintf("FIG 7: DRAM energy vs cache misses: slope %.3g J/miss, R² %.4f over %d points (one line fits all benchmarks)\n",
		r.Line.Slope, r.Line.R2, r.Line.Points)
	return s
}

// Fig8Row is one evaluation benchmark's modeling error.
type Fig8Row struct {
	Benchmark string
	Xi        float64
}

// Fig8Result is the model-accuracy evaluation on the SPEC subset.
type Fig8Result struct {
	Rows  []Fig8Row
	MaxXi float64
}

// Fig8 trains on the modeling set and evaluates the error ξ (Formula 4) on
// the disjoint SPEC subset, with the power namespace fully installed. The
// model is trained once and read-only thereafter; each benchmark's ξ
// measurement builds its own kernel, so the rows fan out over workers
// (with cooperative cancellation through ctx). MaxXi is reduced over the
// ordered row slice, never in the workers, keeping the figure
// byte-identical at any worker count.
//
// spec injects faults into both halves of the defense pipeline: training
// reads its RAPL counters through a perturbed stream (glitch-sample
// rejection must keep the regression clean), and each ξ measurement's
// namespace calibrates against a perturbed raw source (reset/regression
// intervals fall back to pure model attribution). Ground-truth E_RAPL
// reads stay clean — ξ measures the defense's accuracy, not the
// evaluator's. The zero Spec injects nothing.
func Fig8(ctx context.Context, spec chaos.Spec, workers int) (*Fig8Result, error) {
	model, _, err := powerns.Train(powerns.TrainOptions{Seed: 8, Chaos: spec})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 8 train: %w", err)
	}
	rows, err := parallel.MapCtx(ctx, workers, workload.SPECSubset(), func(_ context.Context, _ int, prof workload.Profile) (Fig8Row, error) {
		xi, err := measureXi(model, prof, true, spec)
		if err != nil {
			return Fig8Row{}, fmt.Errorf("experiments: fig 8 %s: %w", prof.Name, err)
		}
		return Fig8Row{Benchmark: prof.Name, Xi: xi}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Rows: rows}
	for _, row := range rows {
		if row.Xi > res.MaxXi {
			res.MaxXi = row.Xi
		}
	}
	return res, nil
}

// measureXi runs one benchmark in a namespaced container on a host that
// also runs system daemons (so the container's share is genuinely less than
// the whole package), and evaluates Formula 4:
//
//	ξ = |(E_RAPL − Δdiff) − M_container| / (E_RAPL − Δdiff),
//
// where Δdiff is the host's measured baseline (idle + daemons) energy.
// calibrate toggles Formula 3's on-the-fly calibration; spec perturbs the
// namespace's calibration source.
func measureXi(model *powerns.Model, prof workload.Profile, calibrate bool, spec chaos.Spec) (float64, error) {
	k := kernel.New(kernel.Options{Hostname: "fig8", Seed: 88})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	rt := container.NewRuntime(k, fs, container.DockerProfile())
	c := rt.Create("bench")
	ns := powerns.New(k, model)
	ns.SetCalibration(calibrate)
	ns.Register(c.CgroupPath)
	ns.Install(fs)
	maxR := k.Meter().MaxEnergyRangeUJ()
	if spec.Enabled() {
		// Perturb the namespace's calibration source — the raw counter the
		// defense itself reads. The ground-truth reads below keep using the
		// clean meter: ξ scores the defense, not the scorer. Each benchmark
		// gets its own salted fault stream so the rows stay independent of
		// worker interleaving.
		ctr := chaos.NewCounters(spec.Config())
		ns.SetRawSource(chaos.WrapRawSource(k.Meter().EnergyUJ, ctr, "fig8/"+prof.Name, maxR))
	}

	// Background system activity outside any power namespace.
	daemons := workload.StressM64
	k.Spawn("system-daemons", k.InitNS(), "/", 0.4, daemons.Rates.Times(0.4))

	// Baseline window: measure Δdiff (J/s) before the workload starts.
	base0 := k.Meter().EnergyUJ(power.Package)
	for s := 0; s < 10; s++ {
		k.Tick(float64(s+1), 1)
	}
	base1 := k.Meter().EnergyUJ(power.Package)
	deltaDiff := float64(power.CounterDelta(base0, base1, maxR)) / 10 // µJ/s

	c.Run(prof, 4)
	k.Tick(11, 1) // settle one interval
	startRaw := k.Meter().EnergyUJ(power.Package)
	startCont, err := ns.Meter(c.CgroupPath)
	if err != nil {
		return 0, err
	}
	const window = 30
	for s := 0; s < window; s++ {
		k.Tick(float64(s+12), 1)
	}
	endCont, err := ns.Meter(c.CgroupPath)
	if err != nil {
		return 0, err
	}
	endRaw := k.Meter().EnergyUJ(power.Package)
	eRAPL := float64(power.CounterDelta(startRaw, endRaw, maxR))
	active := eRAPL - deltaDiff*window
	if active <= 0 {
		return 0, fmt.Errorf("no active energy consumed")
	}
	mCont := endCont - startCont
	// The container's attribution includes its idle-share; subtract the
	// same per-interval baseline share the formula's Δdiff convention
	// removes (the container's model intercept over the window).
	idleShare := (model.Core.Intercept + model.DRAM.Intercept + model.Lambda) * window * 1e6
	return math.Abs(active-(mCont-idleShare)) / active, nil
}

// String renders the per-benchmark errors.
func (r *Fig8Result) String() string {
	tb := texttable.New("Benchmark", "error ξ")
	for _, row := range r.Rows {
		tb.Row(row.Benchmark, fmt.Sprintf("%.4f", row.Xi))
	}
	return fmt.Sprintf("FIG 8: power-model accuracy on the SPEC subset (max ξ = %.4f; paper: all < 0.05)\n%s",
		r.MaxXi, tb.String())
}

// Fig9Result is the transparency experiment's three power traces.
type Fig9Result struct {
	// Seconds of simulated time per sample (1 s).
	HostW, BusyW, IdleW []float64
	// WorkloadStart is the sample index where container 1 starts 401.bzip2.
	WorkloadStart int
}

// Fig9 reproduces the security evaluation: container 1 runs 401.bzip2 from
// t=10 s while container 2 idles; with the power namespace enabled the idle
// container must not observe the surge.
func Fig9() (*Fig9Result, error) {
	model, _, err := powerns.Train(powerns.TrainOptions{Seed: 9})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig 9 train: %w", err)
	}
	k := kernel.New(kernel.Options{Hostname: "fig9", Seed: 99})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	rt := container.NewRuntime(k, fs, container.DockerProfile())
	busy := rt.Create("container-1")
	idle := rt.Create("container-2")
	ns := powerns.New(k, model)
	ns.Register(busy.CgroupPath)
	ns.Register(idle.CgroupPath)
	ns.Install(fs)

	prof, ok := workload.ByName("401.bzip2")
	if !ok {
		return nil, fmt.Errorf("experiments: 401.bzip2 profile missing")
	}

	res := &Fig9Result{WorkloadStart: 10}
	prevBusy, _ := ns.Meter(busy.CgroupPath)
	prevIdle, _ := ns.Meter(idle.CgroupPath)
	prevRaw := k.Meter().EnergyUJ(power.Package)
	for s := 0; s < 60; s++ {
		if s == res.WorkloadStart {
			busy.Run(prof, 8)
		}
		k.Tick(float64(s+1), 1)
		curBusy, err := ns.Meter(busy.CgroupPath)
		if err != nil {
			return nil, err
		}
		curIdle, err := ns.Meter(idle.CgroupPath)
		if err != nil {
			return nil, err
		}
		curRaw := k.Meter().EnergyUJ(power.Package)
		res.BusyW = append(res.BusyW, (curBusy-prevBusy)/1e6)
		res.IdleW = append(res.IdleW, (curIdle-prevIdle)/1e6)
		res.HostW = append(res.HostW, float64(power.CounterDelta(prevRaw, curRaw, k.Meter().MaxEnergyRangeUJ()))/1e6)
		prevBusy, prevIdle, prevRaw = curBusy, curIdle, curRaw
	}
	return res, nil
}

// String summarizes the isolation.
func (r *Fig9Result) String() string {
	pre := stats.Summarize(r.HostW[:r.WorkloadStart])
	post := stats.Summarize(r.HostW[r.WorkloadStart+2:])
	idlePost := stats.Summarize(r.IdleW[r.WorkloadStart+2:])
	busyPost := stats.Summarize(r.BusyW[r.WorkloadStart+2:])
	return fmt.Sprintf(
		"FIG 9: transparency under the power namespace (401.bzip2 in container 1 from t=10 s)\n"+
			"  host power:        %.1f W idle → %.1f W busy\n"+
			"  container 1 view:  %.1f W (tracks its own workload)\n"+
			"  container 2 view:  %.1f W (flat — unaware of the host surge)\n",
		pre.Mean, post.Mean, busyPost.Mean, idlePost.Mean)
}

// Table3Row is one UnixBench benchmark's overhead pair.
type Table3Row struct {
	Benchmark          string
	Orig1, Mod1, Over1 float64
	Orig8, Mod8, Over8 float64
}

// Table3Result is the UnixBench overhead table.
type Table3Result struct {
	Rows []Table3Row
	// Index rows: the geometric-mean System Benchmarks Index Score.
	IndexOrig1, IndexMod1, IndexOver1 float64
	IndexOrig8, IndexMod8, IndexOver8 float64
}

// Table3 reproduces the performance evaluation: UnixBench component scores
// with the power-based namespace disabled ("Original") and enabled
// ("Modified") at 1 and 8 parallel copies on an 8-core host.
func Table3() *Table3Result {
	const nCores = 8
	off := workload.PerfCosts{}
	on := workload.DefaultPerfCosts()

	res := &Table3Result{}
	var o1, m1, o8, m8 []float64
	for _, b := range workload.UnixBenchSuite() {
		row := Table3Row{Benchmark: b.Name}
		row.Orig1 = b.Index(1, nCores, off)
		row.Mod1 = b.Index(1, nCores, on)
		row.Over1 = (row.Orig1 - row.Mod1) / row.Orig1 * 100
		row.Orig8 = b.Index(8, nCores, off)
		row.Mod8 = b.Index(8, nCores, on)
		row.Over8 = (row.Orig8 - row.Mod8) / row.Orig8 * 100
		res.Rows = append(res.Rows, row)
		o1 = append(o1, row.Orig1)
		m1 = append(m1, row.Mod1)
		o8 = append(o8, row.Orig8)
		m8 = append(m8, row.Mod8)
	}
	res.IndexOrig1 = workload.GeoMeanIndex(o1)
	res.IndexMod1 = workload.GeoMeanIndex(m1)
	res.IndexOver1 = (res.IndexOrig1 - res.IndexMod1) / res.IndexOrig1 * 100
	res.IndexOrig8 = workload.GeoMeanIndex(o8)
	res.IndexMod8 = workload.GeoMeanIndex(m8)
	res.IndexOver8 = (res.IndexOrig8 - res.IndexMod8) / res.IndexOrig8 * 100
	return res
}

// String renders Table III.
func (r *Table3Result) String() string {
	tb := texttable.New("Benchmarks", "Orig(1)", "Mod(1)", "Ovhd(1)", "Orig(8)", "Mod(8)", "Ovhd(8)")
	f := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	p := func(v float64) string { return fmt.Sprintf("%.2f%%", v) }
	for _, row := range r.Rows {
		tb.Row(row.Benchmark, f(row.Orig1), f(row.Mod1), p(row.Over1),
			f(row.Orig8), f(row.Mod8), p(row.Over8))
	}
	tb.Row("System Benchmarks Index Score",
		f(r.IndexOrig1), f(r.IndexMod1), p(r.IndexOver1),
		f(r.IndexOrig8), f(r.IndexMod8), p(r.IndexOver8))
	return "TABLE III: UNIXBENCH UNDER THE POWER-BASED NAMESPACE (paper: 9.66% / 7.03% overall)\n" + tb.String()
}
