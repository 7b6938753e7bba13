// Command powersim reproduces the power-attack experiments of Section IV:
// the benign one-week power trace of eight servers (Fig. 2), the
// synergistic-vs-periodic attack comparison (Fig. 3), and the co-resident
// container aggregation on a single server (Fig. 4).
//
// Usage:
//
//	powersim                 # all three figures
//	powersim -fig2 -days 7   # the week-long trace only
//	powersim -fig3           # attack comparison only
//	powersim -fig3sweep 8    # fig3 statistics across seeds (extension)
//	powersim -fig3sweep 8 -j 4  # the sweep's seeds fanned over 4 workers
//	powersim -fig4           # aggregation experiment only
//	powersim -fig3 -chaos 0.02 -chaosseed 1  # fig3 with faulty monitors
//
// The -j flag bounds the worker pool for the seed sweep; 0 means
// GOMAXPROCS. Statistics are byte-identical at any -j value.
//
// The -chaos flag arms the attacked rack's observation surface with
// deterministic fault injection at the given rate, seeded by -chaosseed:
// the attacker's power monitors must then ride flaky energy counters. It
// applies to -fig3; the other figures read the physics directly and are
// unaffected. Rate 0 (the default) injects nothing.
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
	fs := flag.NewFlagSet("powersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig2 := fs.Bool("fig2", false, "one-week benign power trace of 8 servers")
	fig3 := fs.Bool("fig3", false, "synergistic vs periodic attack")
	fig4 := fs.Bool("fig4", false, "co-resident aggregation on one server")
	sweep := fs.Int("fig3sweep", 0, "repeat fig3 over N seeds and report statistics")
	days := fs.Int("days", 7, "trace length for -fig2, in days")
	series := fs.Bool("series", false, "also dump raw series values")
	jobs := fs.Int("j", 0, "worker count for the seed sweep (0 = GOMAXPROCS)")
	chaosRate := fs.Float64("chaos", 0, "fault-injection rate on the observation surface (0 = off; applies to -fig3)")
	chaosSeed := fs.Int64("chaosseed", 1, "seed for the deterministic fault streams")
	prof := profiling.Register(fs)
	version := fs.Bool("version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String("powersim"))
		return 0
	}
	if err := prof.Start(); err != nil {
		fmt.Fprintf(stderr, "powersim: %v\n", err)
		return 1
	}
	defer prof.Stop(func(format string, args ...any) { fmt.Fprintf(stderr, format, args...) })
	all := !*fig2 && !*fig3 && !*fig4 && *sweep == 0
	spec := chaos.Spec{Rate: *chaosRate, Seed: *chaosSeed}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "powersim: %v\n", err)
		return 1
	}
	if *fig2 || all {
		r := experiments.Fig2(*days)
		fmt.Fprint(stdout, r)
		if *series {
			dump(stdout, "fig2-30s-avg-watts", r.Avg30s)
		}
	}
	if *fig3 || all {
		r, err := experiments.Fig3Chaos(spec)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, r)
		if *series {
			dump(stdout, "fig3-synergistic-watts", r.Synergistic.Series)
			dump(stdout, "fig3-periodic-watts", r.Periodic.Series)
		}
	}
	if *sweep > 0 {
		r, err := experiments.Fig3Sweep(context.Background(), *sweep, *jobs)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, r)
	}
	if *fig4 || all {
		r, err := experiments.Fig4()
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, r)
	}
	return 0
}

func dump(w io.Writer, name string, vs []float64) {
	fmt.Fprintf(w, "# %s (%d points)\n", name, len(vs))
	for i, v := range vs {
		fmt.Fprintf(w, "%d %.1f\n", i, v)
	}
}
