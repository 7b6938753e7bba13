// Command leakscan reproduces the paper's leakage-channel study: it runs
// the cross-validation detector (Fig. 1) against the local Docker/LXC
// testbed and the five simulated commercial cloud profiles, printing
// Table I (channel availability per cloud) and Table II (channel ranking
// for co-residence inference).
//
// Usage:
//
//	leakscan            # both tables + discovery
//	leakscan -table1    # availability matrix only
//	leakscan -table2    # U/V/M + entropy ranking only
//	leakscan -discover  # leaking files beyond the Table I registry
//	leakscan -matrix    # runtime matrix: Table I channels + the DVFS
//	                    # frequency channel across clouds AND sandboxed
//	                    # runtimes (gvisor, kata, rootless, podman)
//	leakscan -runtime gvisor  # one sandboxed runtime, matrix channel set
//	leakscan -fleet 8   # validate 8 co-resident containers in one batched
//	                    # engine pass (each host file rendered once)
//	leakscan -j 4       # fan independent work out over 4 workers
//	leakscan -table1 -chaos 0.02 -chaosseed 1  # with fault injection
//
// The -j flag bounds the worker pool for the parallel experiments
// (Table I's per-provider inspections, discovery's per-path reads);
// 0 means GOMAXPROCS. Output is byte-identical at any -j value.
//
// The -chaos flag arms the inspected clouds' observation surfaces with
// deterministic fault injection at the given rate (transient read errors,
// torn/stale reads, flapping masks, counter resets), seeded by -chaosseed.
// It applies to -table1 and -discover; -table2 reads a chaos-free host.
// Rate 0 (the default) injects nothing and is byte-identical to a build
// without the chaos layer.
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
	fs := flag.NewFlagSet("leakscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table1 := fs.Bool("table1", false, "print Table I (leakage channels per cloud)")
	table2 := fs.Bool("table2", false, "print Table II (channel ranking)")
	discover := fs.Bool("discover", false, "list leaking files beyond the Table I registry")
	matrix := fs.Bool("matrix", false, "print the runtime matrix (channels across clouds and sandboxed runtimes)")
	runtime := fs.String("runtime", "", "inspect one sandboxed runtime (gvisor, kata, rootless, podman)")
	fleet := fs.Int("fleet", 0, "validate N co-resident containers in one batched engine pass (0 = off)")
	jobs := fs.Int("j", 0, "worker count for parallel experiments (0 = GOMAXPROCS)")
	chaosRate := fs.Float64("chaos", 0, "fault-injection rate on the observation surface (0 = off)")
	chaosSeed := fs.Int64("chaosseed", 1, "seed for the deterministic fault streams")
	prof := profiling.Register(fs)
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("leakscan"))
		return 0
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintf(stderr, "leakscan: %v\n", err)
		return 1
	}
	defer prof.Stop(func(format string, args ...any) { fmt.Fprintf(stderr, format, args...) })
	all := !*table1 && !*table2 && !*discover && !*matrix && *runtime == "" && *fleet == 0
	spec := chaos.Spec{Rate: *chaosRate, Seed: *chaosSeed}
	ctx := context.Background()

	fail := func(err error) int {
		fmt.Fprintf(stderr, "leakscan: %v\n", err)
		return 1
	}
	if *table1 || all {
		r, err := experiments.Table1(ctx, spec, 0, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *table2 || all {
		r, err := experiments.Table2()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *discover || all {
		r, err := experiments.Discovery(ctx, spec, 0, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *matrix {
		r, err := experiments.MatrixSweep(ctx, spec, 0, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *runtime != "" {
		r, err := experiments.InspectRuntimeChaosWorkers(*runtime, spec, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	if *fleet > 0 {
		r, err := experiments.FleetScanSeeded(ctx, spec, 0, *fleet, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, r)
	}
	return 0
}
