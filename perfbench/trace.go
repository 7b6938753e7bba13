package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one operation share op; parent links a
// span to the span that caused it (-1 for an operation's root). Start is
// relative to the tracer's epoch. A span whose time was measured elsewhere
// (job timestamps, clock probes summed over many ticks) has the start of
// its parent and the measured duration.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// rootSpan names every operation's root span. Its self time is the part of
// the operation no layer span covers: the benchmark's own glue.
const rootSpan = "op"

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. All methods run on the client goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans), Parent: parent,
		Start: time.Since(t.epoch), Dur: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.Dur = time.Since(t.epoch) - s.Start
}

// add records a child of parent whose duration was measured elsewhere.
func (t *tracer) add(name string, parent int, dur time.Duration) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Op: p.Op, ID: len(t.spans), Parent: parent,
		Start: p.Start, Dur: dur})
}

// selfTimes returns, per operation, each span name's self time in ms: its
// duration minus the durations of its direct children, summed over the
// spans of that name in the operation.
func (t *tracer) selfTimes() map[int]map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[int]map[string]float64)
	for i, s := range t.spans {
		m := out[s.Op]
		if m == nil {
			m = make(map[string]float64)
			out[s.Op] = m
		}
		m[s.Name] += ms(s.Dur - child[i])
	}
	return out
}

// medianSelf is the median, over the traced operations, of one span
// name's self time in an operation (0 where an operation has none).
func medianSelf(self map[int]map[string]float64, name string) float64 {
	var xs []float64
	for _, m := range self {
		xs = append(xs, m[name])
	}
	return median(xs)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
