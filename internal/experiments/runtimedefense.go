package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/texttable"
)

// RuntimeDefenseResult scores a sandboxed container runtime as a defense
// layer: the matrix channel set inspected on the plain Docker testbed (the
// paper's baseline) and under the named runtime, side by side. The
// interesting split is channels the sandbox closes (the procfs-backed rows
// a proxied /proc masks wholesale) versus channels that pierce it — the
// DVFS frequency channel reads physical-core state no runtime-level proxy
// can virtualize away.
type RuntimeDefenseResult struct {
	Runtime  string
	Baseline CloudInspection // plain Docker testbed
	Sandbox  CloudInspection // the named runtime target
}

// RuntimeDefense scores the named runtime against the Docker baseline,
// under the given chaos spec and datacenter seed (0 = DefaultInspectSeed).
// Both inspections run over the same seed so the baseline and sandbox
// columns observe the same world.
func RuntimeDefense(name string, spec chaos.Spec, seed int64, workers int) (*RuntimeDefenseResult, error) {
	prof, ok := runtimeProfile(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown runtime %q (one of %v)", name, runtimeNames())
	}
	base, err := NewInspectSession(cloud.LocalTestbed(), spec, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: runtime defense baseline: %w", err)
	}
	defer base.Close()
	sb, err := NewInspectSession(prof, spec, seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: runtime defense %s: %w", name, err)
	}
	defer sb.Close()
	return &RuntimeDefenseResult{
		Runtime:  name,
		Baseline: base.InspectChannels(core.MatrixChannels(), workers),
		Sandbox:  sb.InspectChannels(core.MatrixChannels(), workers),
	}, nil
}

// Closed counts channels leaking on the baseline (● or ◐) that the sandbox
// flips to ○; Pierced counts baseline-leaking channels that survive.
func (r *RuntimeDefenseResult) Closed() (closed, pierced, leaking int) {
	for i := range core.MatrixChannels() {
		if r.Baseline.Reports[i].Availability == core.Unavailable {
			continue
		}
		leaking++
		if r.Sandbox.Reports[i].Availability == core.Unavailable {
			closed++
		} else {
			pierced++
		}
	}
	return closed, pierced, leaking
}

// String renders the per-channel comparison plus the closure summary.
func (r *RuntimeDefenseResult) String() string {
	tb := texttable.New("Leakage Channels", "DOCKER", strings.ToUpper(r.Runtime), "Closed")
	channels := core.MatrixChannels()
	for i, ch := range channels {
		b := r.Baseline.Reports[i].Availability
		s := r.Sandbox.Reports[i].Availability
		mark := ""
		if b != core.Unavailable {
			if s == core.Unavailable {
				mark = "✓"
			} else {
				mark = "✗"
			}
		}
		tb.Row(ch.Name, b.String(), s.String(), mark)
	}
	closed, pierced, leaking := r.Closed()
	return fmt.Sprintf("RUNTIME DEFENSE: %s vs plain Docker\n%s%s closes %d/%d leaking channels; %d pierce the sandbox\n",
		r.Runtime, tb.String(), r.Runtime, closed, leaking, pierced)
}
