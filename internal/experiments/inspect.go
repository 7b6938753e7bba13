package experiments

import (
	"context"
	"fmt"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/parallel"
)

// DefaultInspectSeed is the datacenter seed every one-shot inspection has
// used since the first PR (it is what makes `leakscan -table1` output a
// fixed artifact). Seed-varied scan campaigns — the service layer re-running
// Table I across many simulated datacenters — pass their own seed through
// InspectProviderSeeded; seed 0 everywhere means "use this default", so
// zero-valued requests reproduce the CLI bytes exactly.
const DefaultInspectSeed int64 = 0x1ea4

// CloudInspection is the result of checking one provider: per-channel
// availability, in Table I row order. A failed inspection carries its error
// in Err with empty Reports, so one broken profile does not kill a
// six-cloud sweep.
type CloudInspection struct {
	Provider string
	Reports  []core.ChannelReport
	// Err is non-nil when this provider's inspection failed; Reports is
	// then empty and renderers mark the provider as failed instead of
	// aborting the whole table.
	Err error
}

// inspectProfiles fans the per-provider inspections out and folds failures
// into the per-provider Err field (the injectable inspect hook keeps the
// partial-failure path testable without a breakable provider profile).
// Context cancellation aborts the sweep with ctx's error.
func inspectProfiles(
	ctx context.Context,
	profiles []cloud.ProviderProfile,
	workers int,
	inspect func(cloud.ProviderProfile) (CloudInspection, error),
) ([]CloudInspection, error) {
	out, errs := parallel.MapSettleCtx(ctx, workers, profiles, func(_ context.Context, _ int, p cloud.ProviderProfile) (CloudInspection, error) {
		return inspect(p)
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	failed := 0
	for i := range out {
		if errs[i] != nil {
			out[i] = CloudInspection{Provider: profiles[i].Name, Err: errs[i]}
			failed++
		}
	}
	if failed == len(profiles) {
		return out, fmt.Errorf("experiments: all %d provider inspections failed, first: %w",
			failed, parallel.FirstError(errs))
	}
	return out, nil
}

// PostureChange records one channel whose availability moved between two
// inspections of the same provider — how an operator (or researcher
// re-running the paper's study) tracks masking-posture drift over time.
type PostureChange struct {
	Channel string
	From    core.Availability
	To      core.Availability
}

// DiffInspections compares two inspections channel by channel. It errors if
// the inspections cover different channel sets or either inspection failed.
func DiffInspections(old, new CloudInspection) ([]PostureChange, error) {
	if old.Err != nil || new.Err != nil {
		return nil, fmt.Errorf("experiments: cannot diff failed inspections (%v, %v)", old.Err, new.Err)
	}
	if len(old.Reports) != len(new.Reports) {
		return nil, fmt.Errorf("experiments: inspections cover %d vs %d channels",
			len(old.Reports), len(new.Reports))
	}
	var out []PostureChange
	for i, o := range old.Reports {
		n := new.Reports[i]
		if o.Channel.Name != n.Channel.Name {
			return nil, fmt.Errorf("experiments: channel order mismatch at %d: %s vs %s",
				i, o.Channel.Name, n.Channel.Name)
		}
		if o.Availability != n.Availability {
			out = append(out, PostureChange{
				Channel: o.Channel.Name,
				From:    o.Availability,
				To:      n.Availability,
			})
		}
	}
	return out, nil
}
