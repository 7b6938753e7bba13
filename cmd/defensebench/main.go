// Command defensebench evaluates the power-based namespace defense
// (Section VI): the power-model fits (Figs. 6–7), model accuracy on the
// SPEC subset (Fig. 8), isolation transparency (Fig. 9), the UnixBench
// overhead table (Table III), and the ablation / extension studies from
// DESIGN.md (covert channels, defense-vs-attack, strategy economics,
// attack detection, power-aware billing).
//
// Usage:
//
//	defensebench                 # everything
//	defensebench -fig8 -table3   # selected experiments
//	defensebench -ablations      # ablations + extensions only
//	defensebench -j 4            # fan independent work out over 4 workers
//	defensebench -fig8 -chaos 0.02 -chaosseed 1  # fig8 with faulty counters
//	defensebench -chaossweep     # fault-rate degradation grid (extension)
//	defensebench -policy p.json  # score a mask policy against the stage grid
//	defensebench -runtime gvisor # score a sandboxed runtime as a defense:
//	                             # matrix channels closed vs plain Docker,
//	                             # and which (frequency) pierce the sandbox
//
// The -policy flag loads a mask-policy JSON file (the format leaksd's
// POST /v1/policies stores and internal/policy.Encode emits) and replays
// it offline against the defense stage grid: residual Table I leakage and
// collateral app breakage, side by side with "no defense", stage 1
// masking, and stage 2 namespacing.
//
// The -j flag bounds the worker pool for the parallel experiments
// (Fig. 8's per-benchmark ξ measurements, the covert-channel grid, and
// the ablation sweeps); 0 means GOMAXPROCS. Output is byte-identical at
// any -j value.
//
// The -chaos flag perturbs the defense's own counter reads at the given
// rate, seeded by -chaosseed: model training must reject glitched samples
// and the namespace's calibration must fall back to pure model attribution
// across reset intervals. It applies to -fig8 and seeds -chaossweep's
// grid. Rate 0 (the default) injects nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("defensebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig6 := fs.Bool("fig6", false, "core energy vs instructions fits")
	fig7 := fs.Bool("fig7", false, "DRAM energy vs cache misses fit")
	fig8 := fs.Bool("fig8", false, "model accuracy on the SPEC subset")
	fig9 := fs.Bool("fig9", false, "transparency traces")
	table3 := fs.Bool("table3", false, "UnixBench overhead")
	ablations := fs.Bool("ablations", false, "ablation and extension studies")
	sweep := fs.Bool("chaossweep", false, "fault-rate grid: detector/attack/defense degradation")
	policyFile := fs.String("policy", "", "evaluate a mask-policy JSON file against the defense stage grid")
	runtime := fs.String("runtime", "", "score a sandboxed runtime (gvisor, kata, rootless, podman) as a defense vs plain Docker")
	jobs := fs.Int("j", 0, "worker count for parallel experiments (0 = GOMAXPROCS)")
	chaosRate := fs.Float64("chaos", 0, "fault-injection rate on the defense's counter reads (0 = off; applies to -fig8)")
	chaosSeed := fs.Int64("chaosseed", 1, "seed for the deterministic fault streams")
	prof := profiling.Register(fs)
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("defensebench"))
		return 0
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintf(stderr, "defensebench: %v\n", err)
		return 1
	}
	defer prof.Stop(func(format string, args ...any) { fmt.Fprintf(stderr, format, args...) })
	all := !*fig6 && !*fig7 && !*fig8 && !*fig9 && !*table3 && !*ablations && !*sweep && *policyFile == "" && *runtime == ""
	spec := chaos.Spec{Rate: *chaosRate, Seed: *chaosSeed}
	ctx := context.Background()

	fail := func(err error) int {
		fmt.Fprintf(stderr, "defensebench: %v\n", err)
		return 1
	}

	if *fig6 || all {
		r, err := experiments.Fig6()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *fig7 || all {
		r, err := experiments.Fig7()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *fig8 || all {
		r, err := experiments.Fig8(ctx, spec, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *fig9 || all {
		r, err := experiments.Fig9()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *table3 || all {
		fmt.Fprintln(stdout, experiments.Table3())
	}
	if *ablations || all {
		cs, err := experiments.CovertSurvey(ctx, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, cs)
		rd, err := experiments.DefendedAttack()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, rd)
		det, err := experiments.Detection()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, det)
		pb, err := experiments.PowerBilling()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, pb)
		r1, err := experiments.AblationCalibration(*jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r1)
		r2, err := experiments.AblationModelFeatures()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r2)
		sc, err := experiments.AblationStrategyCost(*jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, experiments.RenderStrategyCost(sc))
		points, err := experiments.AblationCrestThreshold(*jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, experiments.RenderCrestSweep(points))
		stages, err := experiments.AblationDefenseStages()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, experiments.RenderStages(stages))
	}
	if *sweep {
		r, err := experiments.ChaosSweep(ctx, nil, *chaosSeed, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *policyFile != "" {
		r, err := experiments.PolicyEvalFile(*policyFile)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *runtime != "" {
		r, err := experiments.RuntimeDefense(*runtime, chaos.Spec{}, 0, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	return 0
}
