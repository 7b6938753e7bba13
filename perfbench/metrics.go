package main

import (
	"encoding/json"
	"io"
	"math"
)

// metricDef is one metric the benchmark prints: its name and unit, exactly
// as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, the same names on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"heap_mb", "MB"},
	{"read_ms_p50", "ms"},
	{"read_ms_tail", "ms"},
}

// perLayer are the metrics a traced run prints. Every traced run prints
// all of them; a layer its workload bypasses reads 0 (README.md lists
// which layer each workload exercises).
var perLayer = []metricDef{
	// sim-fig3: world build, snapshot/restore, campaigns, tick pipeline.
	{"cloud.build_ms", "ms"},
	{"cloud.snapshot_ms", "ms"},
	{"cloud.restore_ms", "ms"},
	{"attack.synergistic_ms", "ms"},
	{"attack.periodic_ms", "ms"},
	{"attack.background_ms", "ms"},
	{"simclock.advance_ms", "ms"},
	{"simclock.tick_us", "us"},
	{"simclock.pre_us", "us"},
	{"simclock.shard_us", "us"},
	{"simclock.join_us", "us"},
	{"simclock.cpu_per_wall", "ratio"},
	{"pseudofs.renders_per_op", "count"},
	{"power.governor_transitions_per_op", "count"},
	// leaksd-mix: scan path and read path of the daemon.
	{"service.post_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.notify_ms", "ms"},
	{"experiments.session_build_ms", "ms"},
	{"engine.cold_pass_ms", "ms"},
	{"service.scan_overhead_ms", "ms"},
	{"respcache.hit_ratio", "ratio"},
	{"respcache.revalidate_ratio", "ratio"},
	{"service.render_ms.results", "ms"},
	{"service.render_ms.scans", "ms"},
	{"service.render_ms.matrix", "ms"},
	{"service.render_ms.engine", "ms"},
	{"service.render_ms.channels", "ms"},
	{"service.jobs_retained", "count"},
	{"service.session_hits", "count"},
	{"service.session_misses", "count"},
	{"experiments.snapshot_restores", "count"},
	// fleet-scan: cluster dispatch and the incremental engine.
	{"cluster.shard_ms", "ms"},
	{"cluster.wire_ms", "ms"},
	{"cluster.coord_overhead_ms", "ms"},
	{"cluster.requeues", "count"},
	{"engine.finding_hits", "count"},
	{"engine.finding_misses", "count"},
	{"engine.host_renders", "count"},
	{"engine.host_hits", "count"},
	{"engine.hit_ratio", "ratio"},
	// every workload.
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.ref_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.self_sum_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.coverage", "ratio"},
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsFor renders every metric of defs from vals; a metric the run did
// not produce reads 0.
func metricsFor(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// writeLine prints v as one JSON line.
func writeLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
