package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

func TestTable1ShapeMatchesPaper(t *testing.T) {
	r, err := Table1(context.Background(), chaos.Spec{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Local testbed leaks everything; hardened clouds leak progressively
	// less; CC5 least.
	local := r.Available("local")
	if local != 21 {
		t.Fatalf("local ● = %d, want 21", local)
	}
	cc5 := r.Available("cc5")
	if cc5 >= local || cc5 > 12 {
		t.Fatalf("cc5 ● = %d, want well below local's %d", cc5, local)
	}
	for _, p := range []string{"cc1", "cc2", "cc3", "cc4"} {
		if n := r.Available(p); n <= cc5 || n >= 21 {
			t.Errorf("%s ● = %d, want between cc5 (%d) and local (21)", p, n, cc5)
		}
	}
	if r.Available("nope") != -1 {
		t.Fatal("unknown provider should be -1")
	}
	out := r.String()
	if !strings.Contains(out, "/proc/sched_debug") || !strings.Contains(out, "CC5") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Assessments) != 29 {
		t.Fatalf("rows = %d", len(r.Assessments))
	}
	// Top 2: the static unique identifiers.
	if r.Assessments[0].Channel.Name != "/proc/sys/kernel/random/boot_id" {
		t.Fatalf("rank 1 = %s", r.Assessments[0].Channel.Name)
	}
	// Bottom 3: the unrankable static channels.
	tail := r.Assessments[len(r.Assessments)-3:]
	for _, a := range tail {
		if a.Rank != 0 || a.Channel.Uniqueness != core.UNone || a.Varying {
			t.Errorf("tail row %s should be unranked static", a.Channel.Name)
		}
	}
	if !strings.Contains(r.String(), "Rank") {
		t.Fatal("render incomplete")
	}
}

func TestFig2ShapeMatchesPaper(t *testing.T) {
	r := Fig2(2) // two days is enough for the swing shape in tests
	if r.SwingPct < 20 {
		t.Fatalf("swing = %.1f%%, want ≥ 20%% (paper 34.7%%)", r.SwingPct)
	}
	if r.PeakW < 700 || r.PeakW > 1600 {
		t.Fatalf("peak = %.0f W, want near the paper's ~1199 W scale", r.PeakW)
	}
	if r.MinW < 500 || r.MinW >= r.PeakW {
		t.Fatalf("min = %.0f W implausible", r.MinW)
	}
	if len(r.Zoom1s) == 0 || len(r.Avg30s) == 0 {
		t.Fatal("series missing")
	}
	if !strings.Contains(r.String(), "FIG 2") {
		t.Fatal("render incomplete")
	}
}

func TestFig3ShapeMatchesPaper(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if r.Synergistic.PeakW <= r.BackgroundPeakW {
		t.Fatalf("synergistic peak %.0f W must exceed background %.0f W",
			r.Synergistic.PeakW, r.BackgroundPeakW)
	}
	if r.Synergistic.PeakW < r.Periodic.PeakW-1 {
		t.Fatalf("synergistic %.0f W below periodic %.0f W", r.Synergistic.PeakW, r.Periodic.PeakW)
	}
	if r.Synergistic.Trials >= r.Periodic.Trials {
		t.Fatalf("trials: syn %d vs per %d — synergistic must use fewer",
			r.Synergistic.Trials, r.Periodic.Trials)
	}
	if r.Synergistic.AttackCoreSeconds >= r.Periodic.AttackCoreSeconds {
		t.Fatal("synergistic must be cheaper")
	}
	if !strings.Contains(r.String(), "FIG 3") {
		t.Fatal("render incomplete")
	}
}

func TestFig3SweepShape(t *testing.T) {
	r, err := Fig3Sweep(context.Background(), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seeds != 3 {
		t.Fatalf("seeds = %d", r.Seeds)
	}
	// Across seeds: synergistic never loses by more than noise, and the
	// periodic baseline always spends several times the trials and cost.
	if r.SynWins+r.Ties < 2 {
		t.Fatalf("synergistic lost too often: wins=%d ties=%d", r.SynWins, r.Ties)
	}
	if r.MeanTrialRatio < 2 {
		t.Fatalf("trial ratio = %.1f, want periodic ≫ synergistic", r.MeanTrialRatio)
	}
	if r.MeanCostRatio < 2 {
		t.Fatalf("cost ratio = %.1f", r.MeanCostRatio)
	}
	if !strings.Contains(r.String(), "sweep") {
		t.Fatal("render incomplete")
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.StepWatts) != 4 {
		t.Fatalf("steps = %d", len(r.StepWatts))
	}
	// Each container adds roughly +40 W (paper's per-container increment).
	for i := 1; i < 4; i++ {
		inc := r.StepWatts[i] - r.StepWatts[i-1]
		if inc < 25 || inc > 60 {
			t.Errorf("container %d adds %.0f W, want ≈ 40 W", i, inc)
		}
	}
	total := r.StepWatts[3] - r.StepWatts[0]
	if total < 90 || total > 160 {
		t.Errorf("three containers add %.0f W, want ≈ 120 W", total)
	}
	if r.Launched < 3 {
		t.Error("aggregation bookkeeping broken")
	}
	if !strings.Contains(r.String(), "FIG 4") {
		t.Fatal("render incomplete")
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	slopes := map[string]float64{}
	for _, l := range r.Lines {
		if l.R2 < 0.98 {
			t.Errorf("%s: R² = %.3f, want near-perfect linearity", l.Benchmark, l.R2)
		}
		slopes[l.Benchmark] = l.Slope
	}
	if slopes["462.libquantum"] <= slopes["prime"] {
		t.Error("memory-bound slope must exceed compute-bound slope")
	}
	if !strings.Contains(r.String(), "FIG 6") {
		t.Fatal("render incomplete")
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if r.Line.R2 < 0.98 {
		t.Fatalf("global DRAM fit R² = %.3f", r.Line.R2)
	}
	if r.Line.Slope <= 0 {
		t.Fatal("DRAM energy slope must be positive")
	}
	if !strings.Contains(r.String(), "FIG 7") {
		t.Fatal("render incomplete")
	}
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	r, err := Fig8(context.Background(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d, want the 10 SPEC evaluation benchmarks", len(r.Rows))
	}
	if r.MaxXi > 0.05 {
		t.Fatalf("max ξ = %.4f, paper requires < 0.05", r.MaxXi)
	}
	if !strings.Contains(r.String(), "FIG 8") {
		t.Fatal("render incomplete")
	}
}

func TestFig9ShapeMatchesPaper(t *testing.T) {
	r, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// After the workload starts: host surges, container 1 follows,
	// container 2 stays near its idle share.
	hostPre := mean(r.HostW[:r.WorkloadStart])
	hostPost := mean(r.HostW[r.WorkloadStart+2:])
	busyPost := mean(r.BusyW[r.WorkloadStart+2:])
	idlePost := mean(r.IdleW[r.WorkloadStart+2:])
	if hostPost < hostPre+20 {
		t.Fatalf("host did not surge: %.1f → %.1f W", hostPre, hostPost)
	}
	if busyPost < hostPost*0.6 {
		t.Fatalf("busy container view %.1f W too far below host %.1f W", busyPost, hostPost)
	}
	if idlePost > busyPost*0.3 {
		t.Fatalf("idle container view %.1f W not isolated from busy %.1f W", idlePost, busyPost)
	}
	if !strings.Contains(r.String(), "FIG 9") {
		t.Fatal("render incomplete")
	}
}

func mean(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	r := Table3()
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]Table3Row{}
	for _, row := range r.Rows {
		byName[row.Benchmark] = row
	}
	pipe := byName["Pipe-based Context Switching"]
	if pipe.Over1 < 40 || pipe.Over1 > 75 {
		t.Fatalf("pipe ctxsw 1-copy overhead %.1f%%, paper 61.5%%", pipe.Over1)
	}
	if pipe.Over8 > 6 {
		t.Fatalf("pipe ctxsw 8-copy overhead %.1f%%, paper 1.6%%", pipe.Over8)
	}
	dhry := byName["Dhrystone 2 using register variables"]
	if dhry.Over1 > 2 || dhry.Over8 > 2 {
		t.Fatalf("dhrystone overhead %.2f%%/%.2f%%, want ≈ 0", dhry.Over1, dhry.Over8)
	}
	fc := byName["File Copy 256 bufsize 500 maxblocks"]
	if fc.Over8 < fc.Over1 {
		t.Fatal("file copy overhead must grow with copies")
	}
	if r.IndexOver1 < 3 || r.IndexOver1 > 18 {
		t.Fatalf("overall 1-copy overhead %.2f%%, paper 9.66%%", r.IndexOver1)
	}
	if r.IndexOver8 < 1 || r.IndexOver8 > 15 {
		t.Fatalf("overall 8-copy overhead %.2f%%, paper 7.03%%", r.IndexOver8)
	}
	if !strings.Contains(r.String(), "TABLE III") {
		t.Fatal("render incomplete")
	}
}

func TestAblationCalibrationHelps(t *testing.T) {
	r, err := AblationCalibration(0)
	if err != nil {
		t.Fatal(err)
	}
	var worstOn, worstOff float64
	for _, row := range r.Rows {
		if row.XiCalibrated > worstOn {
			worstOn = row.XiCalibrated
		}
		if row.XiUncalibrated > worstOff {
			worstOff = row.XiUncalibrated
		}
	}
	if worstOn > 0.05 {
		t.Fatalf("calibrated worst ξ = %.4f", worstOn)
	}
	if worstOff <= worstOn {
		t.Fatalf("calibration shows no benefit: %.4f vs %.4f", worstOn, worstOff)
	}
	if r.String() == "" {
		t.Fatal("render empty")
	}
}

func TestAblationModelFeatures(t *testing.T) {
	r, err := AblationModelFeatures()
	if err != nil {
		t.Fatal(err)
	}
	if r.NaiveR2 >= r.FullR2 || r.NaiveRMSE <= r.FullRMSE {
		t.Fatalf("naive model should fit worse: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("render empty")
	}
}

func TestAblationCrestThreshold(t *testing.T) {
	points, err := AblationCrestThreshold(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	// Higher thresholds launch fewer (or equal) bursts.
	if points[0].Trials < points[len(points)-1].Trials {
		t.Fatalf("p%.0f trials %d < p%.0f trials %d — expected monotone-ish decrease",
			points[0].Percentile, points[0].Trials,
			points[len(points)-1].Percentile, points[len(points)-1].Trials)
	}
	if out := RenderCrestSweep(points); !strings.Contains(out, "p95") {
		t.Fatal("render incomplete")
	}
}

func TestAblationDefenseStages(t *testing.T) {
	outcomes, err := AblationDefenseStages()
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	base, s1, s2 := outcomes[0], outcomes[1], outcomes[2]
	if base.LeakingChannels != 21 {
		t.Fatalf("baseline leaks %d, want 21", base.LeakingChannels)
	}
	if s1.LeakingChannels != 0 {
		t.Fatalf("stage 1 leaves %d channels ●", s1.LeakingChannels)
	}
	if s1.BrokenApps == 0 {
		t.Fatal("stage 1 must break apps (that is its cost)")
	}
	// Stage 2 closes exactly the channels with implemented namespace fixes
	// (the strongest co-residence indicators plus RAPL); the paper itself
	// notes the remaining resources are hard to partition.
	if s2.LeakingChannels >= base.LeakingChannels {
		t.Fatalf("stage 2 closed nothing (%d ●)", s2.LeakingChannels)
	}
	if s2.LeakingChannels > 15 {
		t.Fatalf("stage 2 leaves %d channels ●, want ≤ 15", s2.LeakingChannels)
	}
	if s2.BrokenApps != 0 {
		t.Fatal("stage 2 must not break apps")
	}
	if out := RenderStages(outcomes); !strings.Contains(out, "stage 2") {
		t.Fatal("render incomplete")
	}
}

func TestAblationStrategyCost(t *testing.T) {
	rows, err := AblationStrategyCost(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]StrategyCost{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	cont, per, syn := byName["continuous"], byName["periodic"], byName["synergistic"]
	// Peaks are within a few percent of each other (all strategies can
	// reach the crest); cost separates them decisively.
	if syn.PeakW < cont.PeakW*0.95 {
		t.Fatalf("synergistic peak %.0f W far below continuous %.0f W", syn.PeakW, cont.PeakW)
	}
	if !(syn.CoreSeconds < per.CoreSeconds && per.CoreSeconds < cont.CoreSeconds) {
		t.Fatalf("core-second ordering wrong: syn %.0f per %.0f cont %.0f",
			syn.CoreSeconds, per.CoreSeconds, cont.CoreSeconds)
	}
	if !(syn.BillUSD < per.BillUSD && per.BillUSD < cont.BillUSD) {
		t.Fatalf("bill ordering wrong: syn %.4f per %.4f cont %.4f",
			syn.BillUSD, per.BillUSD, cont.BillUSD)
	}
	if out := RenderStrategyCost(rows); !strings.Contains(out, "synergistic") {
		t.Fatal("render incomplete")
	}
}

func TestTable2RankAgreementWithPaper(t *testing.T) {
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	rho := r.RankAgreement()
	if rho == -2 {
		t.Fatal("registry drift: a paper channel is missing")
	}
	// The measured ordering should strongly agree with the paper's: same
	// groups, minor within-group reshuffles.
	if rho < 0.8 {
		t.Fatalf("Spearman vs paper = %.3f, want ≥ 0.8", rho)
	}
}
