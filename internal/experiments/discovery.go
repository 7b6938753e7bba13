package experiments

import (
	"context"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/texttable"
)

// DiscoveryResult lists leaking pseudo-files beyond the Table I registry —
// what a fresh systematic sweep surfaces that the paper's November 2016
// snapshot did not enumerate.
type DiscoveryResult struct {
	Findings []core.Finding
	// TotalLeaking counts all leaking files, registry-covered or not.
	TotalLeaking int
}

// DefaultDiscoverySeed is the testbed seed every one-shot discovery sweep
// has used; seed 0 in Discovery selects it.
const DefaultDiscoverySeed int64 = 0xd15c

// Discovery runs the cross-validation detector on the local testbed (seed
// 0 = DefaultDiscoverySeed) and reports the leaking files that no Table I
// channel pattern covers. spec arms the testbed's observation surface with
// deterministic fault injection: the sweep must surface the same leaking
// files when reads are flaky, because a production scanner runs against
// hosts it does not control (the zero Spec injects nothing). The per-path
// cross-validation reads are fanned out over workers while the clock is
// paused, which is safe (read-only tree, audited handlers) and
// deterministic (findings return in path order). The sweep is abandoned
// before the world is built when ctx is already done, so a shutting-down
// daemon never starts a doomed cross-validation pass.
//
// The sweep runs as the first pass of a fresh DiscoverySession (see
// session.go): all cache misses, byte-identical to the direct
// core.CrossValidate path it replaces.
func Discovery(ctx context.Context, spec chaos.Spec, seed int64) (*DiscoveryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := NewDiscoverySession(spec, seed)
	defer s.Close()
	return s.Discover(), nil
}

// String renders the discovery table.
func (r *DiscoveryResult) String() string {
	tb := texttable.New("Newly discovered leaking file", "Status")
	for _, f := range r.Findings {
		tb.Row(f.Path, f.Status.String())
	}
	return fmt.Sprintf(
		"DISCOVERY (extension): %d of %d leaking files fall outside the paper's Table I registry\n%s",
		len(r.Findings), r.TotalLeaking, tb.String())
}
