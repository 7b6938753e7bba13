// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload: it sets the workload up, runs a fixed number of
// operations from one client goroutine in a closed loop, checks every
// output off the clock, and prints one JSON result line. See README.md for
// the workloads, the metric dictionary and how to run it.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// options are the command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	setupOnly bool
}

// workload is one benchmark workload. Every method runs on the client
// goroutine.
type workload interface {
	// setup builds the state the timed phase runs on: the work setup_s
	// times.
	setup() error
	// ops is the fixed operation count of a run of the given length.
	ops(seconds int) int
	// op runs operation i and returns its latency. With t non-nil it
	// records the operation's spans, rooted at a rootSpan that covers
	// exactly the returned latency.
	op(i int, t *tracer) (time.Duration, error)
	// reads returns every read latency (ms) recorded so far.
	reads() []float64
	// check verifies the outputs of the first n operations off the clock.
	// It returns, per operation, whether every output of it verified, and
	// the problems found.
	check(n int) ([]bool, []string)
	// counts returns the run's exact counts: they must repeat in every run
	// with the same seed and operation count.
	counts() map[string]uint64
	// layers returns the workload's per-layer metrics of a traced run;
	// self holds the self times (ms) of the traced operations.
	layers(self map[int]map[string]float64) map[string]float64
	// close stops everything the workload started and waits for it.
	close()
}

var workloads = map[string]func(options) workload{
	"sim-fig3":   newFig3,
	"leaksd-mix": newLeaksd,
	"fleet-scan": newFleet,
}

const (
	// setupSamples is how many fresh processes time the set-up besides
	// the run's own; setup_s is the median of all of them.
	setupSamples = 4
	// stateDir holds what runs leave behind: the count records and the
	// traced runs' span files. It is relative to the working directory,
	// the root of the checkout.
	stateDir = ".bench_build/perfbench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if o.setupOnly {
		return setupChild(o, stdout, stderr)
	}
	res, info, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeLine(stdout, map[string]any{"info": info}); err != nil {
		return 1
	}
	if err := writeLine(stdout, res); err != nil {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: sim-fig3, leaksd-mix or fleet-scan")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every input derives from it")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time one set-up and exit (used internally)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return o, errors.New("unknown workload")
	}
	if o.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return o, errors.New("bad flags")
	}
	return o, nil
}

// setupChild times one set-up in this fresh process and prints it.
func setupChild(o options, stdout, stderr io.Writer) int {
	w := workloads[o.workload](o)
	defer w.close()
	d, err := timedSetup(w)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "setup_s %s\n", strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
	return 0
}

func timedSetup(w workload) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := w.setup()
	return time.Since(start), err
}

// childSetup times a set-up in a fresh process: the experiment layer keeps
// process-global state (its world pool), so only a new process sets up
// from the same starting point every time.
func childSetup(o options, stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-setup-only")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	f := strings.Fields(strings.TrimSpace(out.String()))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("set-up process printed %q", out.String())
	}
	return strconv.ParseFloat(f[1], 64)
}

// bench runs one workload end to end and returns its result line and the
// run's diagnostics.
func bench(o options, stderr io.Writer) (result, map[string]any, error) {
	info := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"traced":     o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
	}
	refBefore := refLoop()

	var setups []float64
	for i := 0; i < setupSamples; i++ {
		s, err := childSetup(o, stderr)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, s)
	}
	w := workloads[o.workload](o)
	defer w.close()
	d, err := timedSetup(w)
	if err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, d.Seconds())

	n := w.ops(o.seconds)
	// A host many times slower than the one the operation counts were
	// sized on stops early rather than overrun the run's time limit; the
	// count records then no longer match and the run reports incorrect.
	guard := time.Duration(o.seconds)*3*time.Second + 15*time.Second
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var lat, latTraced, latPlain []float64
	attempted, opFailures := 0, 0
	var problems []string
	start := time.Now()
	for i := 0; i < n && time.Since(start) < guard; i++ {
		// A traced run alternates traced and untraced operations, so the
		// tracing overhead is measured under the same host conditions.
		var t *tracer
		if tr != nil && i%2 == 1 {
			t = tr
		}
		d, err := w.op(i, t)
		attempted++
		if err != nil {
			opFailures++
			if len(problems) < 5 {
				problems = append(problems, fmt.Sprintf("op %d: %v", i, err))
			}
			continue
		}
		lat = append(lat, ms(d))
		if t != nil {
			latTraced = append(latTraced, ms(d))
		} else {
			latPlain = append(latPlain, ms(d))
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	// Two collections: the second also drops what the first moved into
	// the sync.Pool victim caches, so only live data remains.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	if attempted < n {
		problems = append(problems, fmt.Sprintf("stopped after %d of %d operations at the %v guard", attempted, n, guard))
	}

	ok, checkProblems := w.check(attempted)
	problems = append(problems, checkProblems...)
	verified := countTrue(ok)
	counts := w.counts()
	countsOK := attempted == n
	if countsOK {
		if err := matchCounts(o, n, counts); err != nil {
			countsOK = false
			problems = append(problems, err.Error())
		}
	}
	refAfter := refLoop()

	reads := w.reads()
	opTail, opPct := tail(lat)
	readTail, readPct := tail(reads)
	vals := map[string]float64{
		"setup_s":      median(setups),
		"op_ms_p50":    median(lat),
		"op_ms_tail":   opTail,
		"ops_per_s":    float64(attempted) / wall.Seconds(),
		"ok_ratio":     okRatio(ok, attempted),
		"heap_mb":      float64(live.HeapAlloc) / (1 << 20),
		"read_ms_p50":  median(reads),
		"read_ms_tail": readTail,
	}
	info["e2e"] = vals
	info["op_samples"] = len(lat)
	info["op_tail_pct"] = opPct
	info["read_samples"] = len(reads)
	info["read_tail_pct"] = readPct
	info["setup_samples_s"] = setups
	info["timed_s"] = wall.Seconds()
	info["host_ref_ms_before"] = refBefore
	info["host_ref_ms_after"] = refAfter
	info["counts"] = counts
	if len(problems) > 0 {
		sort.Strings(problems)
		info["problems"] = problems
		for _, p := range problems {
			fmt.Fprintf(stderr, "perfbench: %s\n", p)
		}
	}

	res := result{
		Correct:   verified == attempted && opFailures == 0 && countsOK && len(checkProblems) == 0,
		Attempted: attempted,
		Failed:    attempted - verified,
	}
	if !o.trace {
		res.Metrics = metricsFor(endToEnd, vals)
		return res, info, nil
	}

	self := tr.selfTimes()
	layer := w.layers(self)
	ops := float64(max(attempted, 1))
	layer["runtime.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
	layer["runtime.gc_pause_ms"] = ms(time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)) / ops
	layer["host.ref_ms"] = (refBefore + refAfter) / 2
	plain := median(latPlain)
	layer["trace.overhead_pct"] = 100 * (median(latTraced)/plain - 1)
	var sums, glue []float64
	for _, names := range self {
		var sum float64
		for name, v := range names {
			if name != rootSpan {
				sum += v
			}
		}
		sums = append(sums, sum)
		glue = append(glue, names[rootSpan])
	}
	layer["trace.self_sum_ms"] = median(sums)
	layer["trace.unattributed_ms"] = median(glue)
	layer["trace.coverage"] = median(sums) / plain
	info["untraced_op_ms_p50"] = plain
	if err := tr.write(stateDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed)); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
	}
	res.Metrics = metricsFor(perLayer, layer)
	return res, info, nil
}

// okRatio is the share of attempted operations whose outputs verified.
func okRatio(ok []bool, attempted int) float64 {
	return float64(countTrue(ok)) / float64(max(attempted, 1))
}

func countTrue(xs []bool) int {
	n := 0
	for _, x := range xs {
		if x {
			n++
		}
	}
	return n
}

// matchCounts compares the run's exact counts with the record of an
// earlier run of the same build, workload, seed and operation count, and
// records them when there is none. Any difference is an error: for one
// build these counts are functions of the inputs alone. A change to the
// code is a new build with records of its own, so a change that moves a
// count (a fix, a better cache) is not mistaken for a failure.
func matchCounts(o options, n int, counts map[string]uint64) error {
	build, err := buildID()
	if err != nil {
		return fmt.Errorf("build identity: %w", err)
	}
	path := filepath.Join(stateDir, fmt.Sprintf("counts-%s-seed%d-ops%d-%s.json", o.workload, o.seed, n, build))
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]uint64
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("count record %s: %w", path, err)
		}
		var diff []string
		for k, v := range counts {
			if pv, ok := prev[k]; !ok || pv != v {
				diff = append(diff, fmt.Sprintf("%s=%d (earlier run: %d)", k, v, pv))
			}
		}
		for k := range prev {
			if _, ok := counts[k]; !ok {
				diff = append(diff, k+" missing")
			}
		}
		if len(diff) > 0 {
			sort.Strings(diff)
			return fmt.Errorf("exact counts differ from an earlier run of the same build and seed: %s", strings.Join(diff, ", "))
		}
		return nil
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// buildID identifies the code under test: a hash of this executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

const (
	refShards      = 8       // shards per step, as the rack has servers
	refShardFloats = 1 << 13 // 64 KB of float64 per shard
	refSteps       = 1000
)

// refSink keeps the reference workload's result alive.
var refSink float64

// refLoop times a fixed pure-Go reference workload shaped like a clock
// step of the tick pipeline: every step fans out one goroutine per CPU,
// which take shards off a shared cursor and sweep each shard's 64 KB of
// float64 with a scaled xorshift jitter, the way the kernel's fused row
// kernels update per-CPU accumulators; the step then joins them all. It
// pays for goroutine wake-ups, cross-CPU joins and memory traffic as the
// simulation does, so it slows down with the same host contention. It is
// the same work on every commit, so a change in it between runs is the
// host, not the program.
func refLoop() float64 {
	workers := runtime.GOMAXPROCS(0)
	shards := make([][]float64, refShards)
	for k := range shards {
		shards[k] = make([]float64, refShardFloats)
		for i := range shards[k] {
			shards[k][i] = 1 // fault the pages in off the clock
		}
	}
	start := time.Now()
	for step := 0; step < refSteps; step++ {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for g := 0; g < workers; g++ {
			go func() {
				defer wg.Done()
				for {
					k := int(cursor.Add(1)) - 1
					if k >= refShards {
						return
					}
					row := shards[k]
					x := uint64(88172645463325252) + uint64(step*refShards+k)
					for i := range row {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						row[i] = row[i]*0.5 + float64(x>>40)*1e-6
					}
				}
			}()
		}
		wg.Wait()
	}
	d := time.Since(start)
	for _, row := range shards {
		refSink += row[len(row)-1]
	}
	return ms(d)
}
