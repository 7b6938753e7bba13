package experiments

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/kernel"
	"repro/internal/parallel"
	"repro/internal/powerns"
	"repro/internal/pseudofs"
	"repro/internal/texttable"
	"repro/internal/workload"
)

// AblationCalibrationResult compares modeling error with Formula 3's
// on-the-fly calibration on and off.
type AblationCalibrationResult struct {
	Rows []struct {
		Benchmark      string
		XiCalibrated   float64
		XiUncalibrated float64
	}
}

// AblationCalibration quantifies what the calibration step buys: the same
// trained model, evaluated on the SPEC subset with and without Formula 3.
// Each measureXi call builds its own kernel and only reads the
// shared trained model (immutable after Train), so the per-benchmark on/off
// pairs fan out over workers as share-nothing rows, in benchmark order.
func AblationCalibration(workers int) (*AblationCalibrationResult, error) {
	model, _, err := powerns.Train(powerns.TrainOptions{Seed: 21})
	if err != nil {
		return nil, fmt.Errorf("experiments: ablation calibration train: %w", err)
	}
	rows, err := parallel.Map(workers, workload.SPECSubset(), func(_ int, prof workload.Profile) (struct {
		Benchmark      string
		XiCalibrated   float64
		XiUncalibrated float64
	}, error) {
		var row struct {
			Benchmark      string
			XiCalibrated   float64
			XiUncalibrated float64
		}
		on, err := measureXi(model, prof, true, chaos.Spec{})
		if err != nil {
			return row, err
		}
		off, err := measureXi(model, prof, false, chaos.Spec{})
		if err != nil {
			return row, err
		}
		row.Benchmark, row.XiCalibrated, row.XiUncalibrated = prof.Name, on, off
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &AblationCalibrationResult{Rows: rows}, nil
}

// String renders the comparison.
func (r *AblationCalibrationResult) String() string {
	tb := texttable.New("Benchmark", "ξ calibrated", "ξ uncalibrated")
	var worstOn, worstOff float64
	for _, row := range r.Rows {
		tb.Row(row.Benchmark, fmt.Sprintf("%.4f", row.XiCalibrated), fmt.Sprintf("%.4f", row.XiUncalibrated))
		if row.XiCalibrated > worstOn {
			worstOn = row.XiCalibrated
		}
		if row.XiUncalibrated > worstOff {
			worstOff = row.XiUncalibrated
		}
	}
	return fmt.Sprintf("ABLATION: on-the-fly calibration (Formula 3): worst ξ %.4f with vs %.4f without\n%s",
		worstOn, worstOff, tb.String())
}

// AblationFeaturesResult compares the full Formula 2 feature set against an
// instructions-only regression.
type AblationFeaturesResult struct {
	FullR2, NaiveR2     float64
	FullRMSE, NaiveRMSE float64
}

// AblationModelFeatures quantifies the value of the cache- and branch-miss
// terms the paper adds over naive instruction counting.
func AblationModelFeatures() (*AblationFeaturesResult, error) {
	full, _, err := powerns.Train(powerns.TrainOptions{Seed: 22})
	if err != nil {
		return nil, err
	}
	naive, _, err := powerns.Train(powerns.TrainOptions{Seed: 22, CoreFeatureMask: []bool{true, false, false}})
	if err != nil {
		return nil, err
	}
	return &AblationFeaturesResult{
		FullR2: full.Core.R2, NaiveR2: naive.Core.R2,
		FullRMSE: full.Core.RMSE, NaiveRMSE: naive.Core.RMSE,
	}, nil
}

// String renders the comparison.
func (r *AblationFeaturesResult) String() string {
	return fmt.Sprintf(
		"ABLATION: core-model features: full F(CM/C,BM/C)·I R²=%.4f RMSE=%.2f J vs instructions-only R²=%.4f RMSE=%.2f J\n",
		r.FullR2, r.FullRMSE, r.NaiveR2, r.NaiveRMSE)
}

// CrestPoint is one sweep point of the crest-threshold ablation.
type CrestPoint struct {
	Percentile  float64
	PeakW       float64
	Trials      int
	CoreSeconds float64
}

// AblationCrestThreshold sweeps the synergistic attack's crest percentile
// and reports the peak/cost trade-off. Every percentile point rebuilds its
// own datacenter from the same seed (share-nothing worlds differing only in
// the attack threshold), so the points fan out over workers and return in
// sweep order.
func AblationCrestThreshold(workers int) ([]CrestPoint, error) {
	return parallel.Map(workers, []float64{50, 70, 80, 90, 95, 99}, func(_ int, pct float64) (CrestPoint, error) {
		dc := cloud.New(cloud.Config{
			Racks: 1, ServersPerRack: 4, CoresPerServer: 16, Seed: 23,
			BreakerRatedW: 1e9,
			Benign:        cloud.BenignConfig{FlashCrowdPerDay: 48},
		})
		dc.Clock.Run(16*3600, 30)
		agg, err := attack.SpreadAcrossRack(dc, "m", 4, 4, 3600, 400)
		if err != nil {
			return CrestPoint{}, err
		}
		cfg := attack.DefaultConfig()
		cfg.CrestPercentile = pct
		r, err := attack.RunSynergistic(dc, agg.Kept[0].Server.Rack, agg.Containers(), cfg, 3000)
		if err != nil {
			return CrestPoint{}, err
		}
		return CrestPoint{Percentile: pct, PeakW: r.PeakW, Trials: r.Trials, CoreSeconds: r.AttackCoreSeconds}, nil
	})
}

// RenderCrestSweep renders the sweep.
func RenderCrestSweep(points []CrestPoint) string {
	tb := texttable.New("Crest percentile", "Peak (W)", "Trials", "Attack core-s")
	for _, p := range points {
		tb.Row(fmt.Sprintf("p%.0f", p.Percentile), fmt.Sprintf("%.0f", p.PeakW),
			fmt.Sprintf("%d", p.Trials), fmt.Sprintf("%.0f", p.CoreSeconds))
	}
	return "ABLATION: synergistic crest threshold sweep\n" + tb.String()
}

// StrategyCost is one attack strategy's peak-vs-cost point (Section IV-B's
// economics: maximize attack outcome per metered dollar).
type StrategyCost struct {
	Strategy    string
	PeakW       float64
	Trials      int
	CoreSeconds float64
	BillUSD     float64
}

// AblationStrategyCost compares continuous, periodic, and synergistic
// attacks on identical worlds, including the metered bill each accrues.
// Each strategy drives its own same-seed world, so the three runs are
// share-nothing and fan out over workers, rows in strategy order.
func AblationStrategyCost(workers int) ([]StrategyCost, error) {
	run := func(strategy string) (StrategyCost, error) {
		dc := cloud.New(cloud.Config{
			Racks: 1, ServersPerRack: 4, CoresPerServer: 16, Seed: 24,
			BreakerRatedW: 1e9,
			Benign:        cloud.BenignConfig{FlashCrowdPerDay: 48, FlashMinS: 60, FlashMaxS: 240, SharedFlash: true},
		})
		dc.Clock.Run(16*3600, 30)
		agg, err := attack.SpreadAcrossRack(dc, "mallory", 4, 4, 3600, 300)
		if err != nil {
			return StrategyCost{}, err
		}
		rack := agg.Kept[0].Server.Rack
		cfg := attack.DefaultConfig()
		var r attack.Result
		switch strategy {
		case "continuous":
			r = attack.RunContinuous(dc, rack, agg.Containers(), cfg, 3000)
		case "periodic":
			r = attack.RunPeriodic(dc, rack, agg.Containers(), cfg, 3000, 300)
		case "synergistic":
			cfg.TriggerNearMax = 0.95
			cfg.WarmupSeconds = 600
			cfg.CooldownSeconds = 240
			r, err = attack.RunSynergistic(dc, rack, agg.Containers(), cfg, 3000)
			if err != nil {
				return StrategyCost{}, err
			}
		}
		return StrategyCost{
			Strategy:    strategy,
			PeakW:       r.PeakW,
			Trials:      r.Trials,
			CoreSeconds: r.AttackCoreSeconds,
			BillUSD:     dc.Billing().TenantBill("mallory"),
		}, nil
	}
	return parallel.Map(workers, []string{"continuous", "periodic", "synergistic"}, func(_ int, s string) (StrategyCost, error) {
		sc, err := run(s)
		if err != nil {
			return StrategyCost{}, fmt.Errorf("experiments: strategy %s: %w", s, err)
		}
		return sc, nil
	})
}

// RenderStrategyCost renders the economics table.
func RenderStrategyCost(rows []StrategyCost) string {
	tb := texttable.New("Strategy", "Peak (W)", "Trials", "Attack core-s", "Bill ($)")
	for _, r := range rows {
		tb.Row(r.Strategy, fmt.Sprintf("%.0f", r.PeakW), fmt.Sprintf("%d", r.Trials),
			fmt.Sprintf("%.0f", r.CoreSeconds), fmt.Sprintf("%.4f", r.BillUSD))
	}
	return "ABLATION: attack-strategy economics (Section IV-B)\n" + tb.String()
}

// StageOutcome summarizes one defense configuration.
type StageOutcome struct {
	Name string
	// LeakingChannels counts Table I channels still ● after the defense.
	LeakingChannels int
	// BrokenApps counts legitimate apps losing at least one read.
	BrokenApps int
}

// AblationDefenseStages compares no defense, stage 1 only (masking), and
// stage 2 (namespacing): residual leakage vs application breakage.
func AblationDefenseStages() ([]StageOutcome, error) {
	var out []StageOutcome

	// Baseline.
	k0, fs0, rt0 := stageWorld(31)
	out = append(out, StageOutcome{Name: "no defense", LeakingChannels: stageLeakCount(fs0, k0, rt0, nil)})

	// Stage 1: masks from a fresh inspection.
	k1, fs1, rt1 := stageWorld(32)
	probe := rt1.Create("inspect")
	k1.Tick(5, 5)
	host := pseudofs.NewMount(fs1, pseudofs.HostView(k1), pseudofs.Policy{})
	reports := core.RollUp(core.TableIChannels(), core.CrossValidate(host, probe.Mount()))
	if err := rt1.Destroy(probe.ID); err != nil {
		return nil, err
	}
	rules := defense.MaskingRules(reports)
	out = append(out, StageOutcome{
		Name:            "stage 1 (masking)",
		LeakingChannels: stageLeakCount(fs1, k1, rt1, rules),
		BrokenApps:      len(defense.AssessImpact(rules, defense.CommonApps())),
	})

	// Stage 2: namespace fixes + power namespace, no masks.
	k2, fs2, rt2 := stageWorld(33)
	model, _, err := powerns.Train(powerns.TrainOptions{Seed: 33})
	if err != nil {
		return nil, err
	}
	defense.ApplyNamespaceFixes(fs2)
	ns := powerns.New(k2, model)
	ns.Install(fs2)
	out = append(out, StageOutcome{
		Name:            "stage 2 (namespacing)",
		LeakingChannels: stageLeakCount(fs2, k2, rt2, nil),
		BrokenApps:      0, // interfaces stay readable, now with private data
	})
	return out, nil
}

// stageWorld builds one isolated kernel/pseudofs/runtime triple for a
// defense-stage measurement; each stage gets its own seed so the rows are
// independent observations.
func stageWorld(seed int64) (*kernel.Kernel, *pseudofs.FS, *container.Runtime) {
	k := kernel.New(kernel.Options{Hostname: "stage", Seed: seed})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	return k, fs, container.NewRuntime(k, fs, container.DockerProfile())
}

// stageLeakCount counts Table I channels still fully available (●) to a
// probe container created with the given extra masking rules.
func stageLeakCount(fs *pseudofs.FS, k *kernel.Kernel, rt *container.Runtime, extra []pseudofs.Rule) int {
	probe := rt.Create("probe", extra...)
	defer func() { _ = rt.Destroy(probe.ID) }()
	k.Tick(k.Now()+5, 5)
	host := pseudofs.NewMount(fs, pseudofs.HostView(k), pseudofs.Policy{})
	n := 0
	for _, rep := range core.RollUp(core.TableIChannels(), core.CrossValidate(host, probe.Mount())) {
		if rep.Availability == core.Available {
			n++
		}
	}
	return n
}

// RenderStages renders the stage comparison.
func RenderStages(outcomes []StageOutcome) string {
	tb := texttable.New("Defense", "Channels still ●", "Apps broken")
	for _, o := range outcomes {
		tb.Row(o.Name, fmt.Sprintf("%d / 21", o.LeakingChannels), fmt.Sprintf("%d / %d", o.BrokenApps, len(defense.CommonApps())))
	}
	return "ABLATION: two-stage defense — residual leakage vs collateral damage\n" + tb.String()
}
