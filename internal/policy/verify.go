package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
)

// ChannelOutcome is one channel's verdict flip under a verified policy.
type ChannelOutcome struct {
	Channel string `json:"channel"`
	// Before/After are Table I availability glyphs (● ◐ ○).
	Before string `json:"before"`
	After  string `json:"after"`
	// Closed means the channel leaked at baseline and reads ○ under the
	// policy — the only transition that counts as closure.
	Closed bool `json:"closed"`
}

// Report is the outcome of verifying one policy against its provider
// world: per-channel verdict flips plus the benign-breakage check.
type Report struct {
	Provider      string  `json:"provider"`
	Seed          int64   `json:"seed"`
	Rules         int     `json:"rules"`
	ChannelsTotal int     `json:"channels_total"`
	LeakingBefore int     `json:"leaking_before"`
	Closed        int     `json:"closed"`
	Closure       float64 `json:"closure"`
	// BenignFailures lists paths the benign suite read successfully at
	// baseline but can no longer read under the policy. A correct
	// synthesis keeps this empty; the canary controller rolls back on the
	// first entry.
	BenignFailures []string         `json:"benign_failures,omitempty"`
	Channels       []ChannelOutcome `json:"channels"`
}

// Verify checks a policy against a fresh provider world built from the
// same seed: the probe is cross-validated before and after the policy is
// applied (a channel is closed iff its verdict flips to ○), and the benign
// suite replays under the policy (every read that succeeded at baseline
// must still succeed). The world is frozen between the two passes, so the
// comparison isolates the policy — and the whole report is
// byte-deterministic for fixed inputs.
func Verify(p cloud.ProviderProfile, pol Policy, seed int64, opts Options) (Report, error) {
	if seed == 0 {
		seed = DefaultSeed
	}
	rules, err := pol.PseudoRules()
	if err != nil {
		return Report{}, err
	}
	w, err := newWorld(p, opts.Chaos, seed, opts.containers())
	if err != nil {
		return Report{}, err
	}
	eng := engine.New(w.srv.HostMount())
	channels := core.TableIChannels()
	before := core.RollUp(channels, eng.Validate(w.probe.Mount()))
	baseline := w.mine(p.Name, seed, opts.workers())

	w.probe.ApplyPolicy(pol.Name(), rules)
	for _, c := range w.tenants {
		c.ApplyPolicy(pol.Name(), rules)
	}
	after := core.RollUp(channels, eng.Validate(w.probe.Mount()))
	replay := w.mine(p.Name, seed, opts.workers())

	rep := Report{
		Provider:      p.Name,
		Seed:          seed,
		Rules:         len(pol.Rules),
		ChannelsTotal: len(channels),
	}
	for i, b := range before {
		a := after[i]
		out := ChannelOutcome{
			Channel: b.Channel.Name,
			Before:  b.Availability.String(),
			After:   a.Availability.String(),
		}
		if b.Availability != core.Unavailable {
			rep.LeakingBefore++
			if a.Availability == core.Unavailable {
				out.Closed = true
				rep.Closed++
			}
		}
		rep.Channels = append(rep.Channels, out)
	}
	if rep.LeakingBefore > 0 {
		rep.Closure = float64(rep.Closed) / float64(rep.LeakingBefore)
	} else {
		rep.Closure = 1
	}
	for path := range baseline.Benign {
		if replay.Benign[path] == 0 {
			rep.BenignFailures = append(rep.BenignFailures, path)
		}
	}
	sort.Strings(rep.BenignFailures)
	return rep, nil
}

// Generate is the full pipeline: synthesize a policy for the provider,
// then verify it in a fresh world from the same seed.
func Generate(p cloud.ProviderProfile, seed int64, opts Options) (Policy, Report, error) {
	pol, err := Synthesize(p, seed, opts)
	if err != nil {
		return Policy{}, Report{}, err
	}
	rep, err := Verify(p, pol, seed, opts)
	if err != nil {
		return Policy{}, Report{}, err
	}
	return pol, rep, nil
}

// String renders the report as the verification table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "POLICY VERIFICATION: %s (seed %#x, %d rules)\n", r.Provider, r.Seed, r.Rules)
	fmt.Fprintf(&b, "  closed %d of %d leaking channels (%.0f%%), benign failures: %d\n",
		r.Closed, r.LeakingBefore, r.Closure*100, len(r.BenignFailures))
	fmt.Fprintf(&b, "  %-36s %-6s %-6s %s\n", "Channel", "Before", "After", "Closed")
	for _, c := range r.Channels {
		mark := ""
		if c.Closed {
			mark = "✓"
		}
		fmt.Fprintf(&b, "  %-36s %-6s %-6s %s\n", c.Channel, c.Before, c.After, mark)
	}
	for _, p := range r.BenignFailures {
		fmt.Fprintf(&b, "  BROKEN benign read: %s\n", p)
	}
	return b.String()
}
