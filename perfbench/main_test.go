package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		value, pc float64
		beyond    int
	}{
		{3600, 3240, 90, 360},
		{1000, 900, 90, 100},
		{100, 90, 90, 10},
		{54, 44, 100 * 44.0 / 54, 10},
		{20, 10, 50, 10},
		{11, 1, 100.0 / 11, 10},
	} {
		v, pc := tail(seq(c.n))
		if v != c.value || math.Abs(pc-c.pc) > 1e-9 {
			t.Errorf("tail of %d samples = %v at p%.4g, want %v at p%.4g", c.n, v, pc, c.value, c.pc)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != c.beyond || beyond < tailBeyond {
			t.Errorf("%d samples: %d beyond the tail, want %d (never fewer than %d)", c.n, beyond, c.beyond, tailBeyond)
		}
	}
	// Ten or fewer samples: no percentile qualifies; the median stands in.
	if v, pc := tail([]float64{4, 1, 3, 2}); v != 2.5 || pc != 50 {
		t.Errorf("tail of 4 samples = %v at p%v, want the median 2.5 at p50", v, pc)
	}
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	draw := func(seed int64, name string) []uint64 {
		s := newStream(seed, name)
		out := make([]uint64, 64)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	same := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(draw(7, "x"), draw(7, "x")) {
		t.Error("the same seed gave two different streams")
	}
	if same(draw(7, "x"), draw(8, "x")) {
		t.Error("seeds 7 and 8 gave the same stream")
	}
	if same(draw(7, "x"), draw(7, "y")) {
		t.Error("two input families share one stream")
	}
}

// TestWorkloadInputsRepeatPerSeed checks the inputs a workload generates,
// not just the generator: the leaksd-mix scan requests and reads.
func TestWorkloadInputsRepeatPerSeed(t *testing.T) {
	inputs := func(seed int64) []string {
		b := newLeaksd(options{workload: "leaksd-mix", seed: seed, seconds: 1}).(*leaksdBench)
		var out []string
		for i := 0; i < 50; i++ {
			out = append(out, b.next().body())
			for _, g := range b.readRound() {
				out = append(out, g.endpoint+g.query)
			}
		}
		return out
	}
	a, b, c := inputs(3), inputs(3), inputs(4)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatal("input streams of different lengths")
	}
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 3 input %d: %q then %q", i, a[i], b[i])
		}
		differs = differs || a[i] != c[i]
	}
	if !differs {
		t.Error("seeds 3 and 4 gave the same inputs")
	}
}

// TestMetricsMatchBenchmarkJSON checks that every metric BENCHMARK.json
// names is printed, with its unit, and nothing else.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(workloads))
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var buf bytes.Buffer
		if err := writeLine(&buf, result{Correct: true, Attempted: 1, Metrics: metricsFor(c.defs, nil)}); err != nil {
			t.Fatal(err)
		}
		var printed struct {
			Metrics map[string]metricValue
		}
		if err := json.Unmarshal(buf.Bytes(), &printed); err != nil {
			t.Fatal(err)
		}
		if len(printed.Metrics) != len(c.listed) {
			t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(printed.Metrics), len(c.listed))
		}
		for _, m := range c.listed {
			got, ok := printed.Metrics[m.Name]
			if !ok {
				t.Errorf("metric %s is not printed", m.Name)
				continue
			}
			if got.Unit != m.Unit {
				t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
}

func TestResultLineKeys(t *testing.T) {
	var buf bytes.Buffer
	if err := writeLine(&buf, result{Correct: true, Attempted: 3, Failed: 1, Metrics: metricsFor(endToEnd, map[string]float64{"op_ms_p50": 1.5})}); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; len(keys) != 4 || keys[0] != want[0] || keys[3] != want[3] {
		t.Errorf("result keys %v, want %v", keys, want)
	}
}

// TestWrongRenderingLowersOKRatio feeds the leaksd-mix check a scan whose
// stored rendering was altered and expects that scan to fail verification.
func TestWrongRenderingLowersOKRatio(t *testing.T) {
	b := newLeaksd(options{workload: "leaksd-mix", seed: 5, seconds: 1}).(*leaksdBench)
	defer b.close()
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if _, err := b.op(i, nil); err != nil {
			t.Fatal(err)
		}
		b.scans[i].sample = true // check every scan against its replay
	}
	ok, problems := b.check(n)
	if r := okRatio(ok, n); r != 1 {
		t.Fatalf("untouched run: ok_ratio %v, problems %v", r, problems)
	}
	job, _ := b.sched.JobByID(b.scans[2].jobID)
	job.Result.Rendered += "tampered\n"
	ok, _ = b.check(n)
	if r := okRatio(ok, n); r != float64(n-1)/n {
		t.Errorf("one wrong rendering: ok_ratio %v, want %v", r, float64(n-1)/n)
	}
	if ok[2] {
		t.Error("the scan with the wrong rendering verified")
	}
}

func TestParseFlags(t *testing.T) {
	var stderr bytes.Buffer
	o, err := parseFlags([]string{"--workload", "fleet-scan", "--seed", "9", "--seconds", "3", "--trace", "1"}, &stderr)
	if err != nil || o.workload != "fleet-scan" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-fig3", "--trace", "2"},
		{"--workload", "sim-fig3", "--seconds", "0"},
	} {
		if _, err := parseFlags(bad, &stderr); err == nil {
			t.Errorf("parseFlags(%v) accepted", bad)
		}
	}
}
