package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/texttable"
)

// MatrixResult is the runtime-aware extension of Table I: the paper's 21
// channel families plus the DVFS frequency channel (rows) against the five
// commercial clouds plus four modern container runtimes (columns). The
// sandbox columns are the point — gVisor and Kata proxy procfs and kill
// every classic channel, but the frequency channel passes through, so the
// matrix shows exactly which hardening strategy closes which row.
type MatrixResult struct {
	Inspections []CloudInspection
}

// MatrixSweep runs the full matrix: chaos spec, datacenter seed (0 =
// DefaultInspectSeed), context cancellation, and a worker count over the
// share-nothing targets, so the result is byte-identical at any worker
// count. It runs as the first pass of fresh per-target sessions — all
// cache misses, byte-identical to what a persistent MatrixSession serves
// warm.
func MatrixSweep(ctx context.Context, spec chaos.Spec, seed int64, workers int) (*MatrixResult, error) {
	ins, err := inspectProfiles(ctx, cloud.MatrixTargets(), workers, func(p cloud.ProviderProfile) (CloudInspection, error) {
		s, err := NewInspectSession(p, spec, seed)
		if err != nil {
			return CloudInspection{}, err
		}
		defer s.Close()
		return s.InspectChannels(core.MatrixChannels(), 1), nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: matrix sweep: %w", err)
	}
	return &MatrixResult{Inspections: ins}, nil
}

// runtimeProfile resolves a sandboxed-runtime target by name.
func runtimeProfile(name string) (cloud.ProviderProfile, bool) {
	for _, p := range cloud.RuntimeTargets() {
		if p.Name == name {
			return p, true
		}
	}
	return cloud.ProviderProfile{}, false
}

// runtimeNames lists the sandboxed-runtime targets, in matrix column order.
func runtimeNames() []string {
	targets := cloud.RuntimeTargets()
	names := make([]string, len(targets))
	for i, p := range targets {
		names[i] = p.Name
	}
	return names
}

// InspectRuntimeChaosWorkers runs one sandboxed-runtime inspection over the
// matrix channel set — the CLI face of leaksd's runtime= inspect scans. The
// result is a one-column matrix, rendered by the same table as the full
// sweep.
func InspectRuntimeChaosWorkers(name string, spec chaos.Spec, workers int) (*MatrixResult, error) {
	p, ok := runtimeProfile(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown runtime %q (one of %v)", name, runtimeNames())
	}
	s, err := NewInspectSession(p, spec, 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: runtime %s: %w", name, err)
	}
	defer s.Close()
	return &MatrixResult{Inspections: []CloudInspection{s.InspectChannels(core.MatrixChannels(), workers)}}, nil
}

// MatrixSession holds one persistent InspectSession per matrix target so
// repeated sweeps reuse every target's incremental engine cache: on an
// unadvanced world a warm Sweep re-renders nothing at all, where a cold
// MatrixSweep rebuilds nine datacenters and re-renders every path.
type MatrixSession struct {
	sessions []*InspectSession
}

// NewMatrixSession builds the nine target worlds (seed 0 =
// DefaultInspectSeed) and wraps each in an incremental engine.
func NewMatrixSession(spec chaos.Spec, seed int64) (*MatrixSession, error) {
	targets := cloud.MatrixTargets()
	ms := &MatrixSession{sessions: make([]*InspectSession, 0, len(targets))}
	for _, p := range targets {
		s, err := NewInspectSession(p, spec, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: matrix session %s: %w", p.Name, err)
		}
		ms.sessions = append(ms.sessions, s)
	}
	return ms, nil
}

// Sweep re-runs the matrix across the persistent sessions. The fan-out is
// share-nothing (one engine per target) and results come back in target
// order, so output is byte-identical at any worker count — warm or cold.
func (m *MatrixSession) Sweep(workers int) *MatrixResult {
	out, _ := parallel.MapSettleCtx(context.Background(), workers, m.sessions,
		func(_ context.Context, _ int, s *InspectSession) (CloudInspection, error) {
			return s.InspectChannels(core.MatrixChannels(), 1), nil
		})
	return &MatrixResult{Inspections: out}
}

// Advance drives every target world forward by the given number of
// 1-second ticks (dirty subsystems re-render on the next Sweep).
func (m *MatrixSession) Advance(ticks int) {
	for _, s := range m.sessions {
		s.Advance(ticks)
	}
}

// String renders the matrix like Table I, with the runtime columns after
// the cloud columns and the frequency channel as the last row. Failed
// targets render as "✗" per row with the error appended below.
func (r *MatrixResult) String() string {
	headers := []string{"Leakage Channels", "Leakage Information", "Co-re", "DoS", "Leak"}
	for _, ins := range r.Inspections {
		headers = append(headers, strings.ToUpper(ins.Provider))
	}
	tb := texttable.New(headers...)
	channels := core.MatrixChannels()
	for i, ch := range channels {
		row := []string{ch.Name, ch.Info, glyph(ch.CoRes), glyph(ch.DoS), glyph(ch.InfoLeak)}
		for _, ins := range r.Inspections {
			if ins.Err != nil {
				row = append(row, "✗")
				continue
			}
			row = append(row, ins.Reports[i].Availability.String())
		}
		tb.Row(row...)
	}
	s := "RUNTIME MATRIX: LEAKAGE CHANNELS ACROSS CLOUDS AND CONTAINER RUNTIMES\n" + tb.String()
	for _, ins := range r.Inspections {
		if ins.Err != nil {
			s += fmt.Sprintf("✗ %s: inspection failed: %v\n", ins.Provider, ins.Err)
		}
	}
	return s
}

// Narrow returns a copy of the result restricted to the named target
// columns, in the original column order — the renderer behind provider=
// and runtime= filters. Unknown names simply match nothing.
func (r *MatrixResult) Narrow(names ...string) *MatrixResult {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	out := &MatrixResult{}
	for _, ins := range r.Inspections {
		if keep[ins.Provider] {
			out.Inspections = append(out.Inspections, ins)
		}
	}
	return out
}

// Available counts ● channels for a target by name ("cc1", "gvisor", …).
// Failed targets (and unknown names) report -1.
func (r *MatrixResult) Available(name string) int {
	for _, ins := range r.Inspections {
		if ins.Provider != name {
			continue
		}
		if ins.Err != nil {
			return -1
		}
		n := 0
		for _, rep := range ins.Reports {
			if rep.Availability == core.Available {
				n++
			}
		}
		return n
	}
	return -1
}
