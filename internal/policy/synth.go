package policy

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/pseudofs"
)

// Synthesize mines the provider's benign read surface and generates the
// minimal ordered rule set that closes every Table I channel the detector
// finds leaking in that world:
//
//   - a channel pattern no benign workload reads under gets one Deny over
//     the whole pattern — the cheapest closure, and breakage-free by
//     construction;
//   - a channel pattern on the benign surface gets per-path rules: Empty
//     (read succeeds, content masked) for paths the benign trace needs,
//     Deny for the rest.
//
// Empty rules order ahead of Deny rules so first-match-wins keeps the
// benign surface readable even where a broad Deny glob overlaps it. Each
// rule records the covered paths' kernel-subsystem dependency masks
// (pseudofs.Dep), linking the policy to the epoch machinery that decides
// when it must be re-verified. Output is a pure function of (provider,
// chaos, seed, opts): byte-deterministic.
func Synthesize(p cloud.ProviderProfile, seed int64, opts Options) (Policy, error) {
	if seed == 0 {
		seed = DefaultSeed
	}
	w, err := newWorld(p, opts.Chaos, seed, opts.containers())
	if err != nil {
		return Policy{}, err
	}
	eng := engine.New(w.srv.HostMount())
	findings := eng.Validate(w.probe.Mount())
	mined := w.mine(p.Name, seed, opts.workers())
	rules := synthesize(w.srv.FS, core.TableIChannels(), findings, mined)
	return Policy{
		Provider:    p.Name,
		Seed:        seed,
		Rules:       rules,
		BenignPaths: mined.BenignPaths(),
	}, nil
}

// leaking reports whether a finding still exposes host kernel state: an
// identical or filtered match, or a volatile read of host data. These are
// exactly the statuses RollUp counts toward a channel's availability.
func leaking(s core.FileStatus) bool {
	return s == core.Identical || s == core.Partial || s == core.Volatile
}

// patternEvidence resolves, per channel pattern in registry order (the
// flattened ch.Paths of every channel), the leaking findings it covers in
// finding order and whether any benign read falls under it: one glob-index
// query per path instead of one match per (pattern, path) pair.
func patternEvidence(channels []core.Channel, findings []core.Finding, mined MinedTrace) (leaksUnder [][]core.Finding, benignUnder []bool) {
	var patterns []string
	for _, ch := range channels {
		patterns = append(patterns, ch.Paths...)
	}
	idx := pseudofs.CompileGlobs(patterns)
	leaksUnder = make([][]core.Finding, len(patterns))
	benignUnder = make([]bool, len(patterns))
	var hits []int
	for _, f := range findings {
		if !leaking(f.Status) {
			continue
		}
		hits = idx.AppendMatches(hits[:0], f.Path)
		for _, pi := range hits {
			leaksUnder[pi] = append(leaksUnder[pi], f)
		}
	}
	for path := range mined.Benign {
		hits = idx.AppendMatches(hits[:0], path)
		for _, pi := range hits {
			benignUnder[pi] = true
		}
	}
	return leaksUnder, benignUnder
}

// synthesize is the pure rule generator: detector findings plus the mined
// benign surface in, ordered rules out.
func synthesize(fs *pseudofs.FS, channels []core.Channel, findings []core.Finding, mined MinedTrace) []Rule {
	type draft struct {
		rule  Rule
		order int // emission index, tie-broken by pattern for determinism
	}
	drafts := make(map[string]draft) // pattern+action → first draft
	emit := func(r Rule) {
		key := string(r.Action) + " " + r.Pattern
		if _, ok := drafts[key]; ok {
			return
		}
		drafts[key] = draft{rule: r, order: len(drafts)}
	}

	leaksUnder, benignUnder := patternEvidence(channels, findings, mined)
	pi := -1
	for _, ch := range channels {
		for _, pat := range ch.Paths {
			pi++
			leaks := leaksUnder[pi]
			if len(leaks) == 0 {
				continue // pattern already closed (or absent) in this world
			}
			if !benignUnder[pi] {
				var mask kernel.SubsystemMask
				for _, f := range leaks {
					mask |= fs.Dep(f.Path).Mask
				}
				emit(Rule{
					Pattern:    pat,
					Action:     ActionDeny,
					Channel:    ch.Name,
					Subsystems: maskString(mask),
				})
				continue
			}
			for _, f := range leaks {
				action := ActionDeny
				if mined.Needs(f.Path) {
					action = ActionEmpty
				}
				emit(Rule{
					Pattern:    f.Path,
					Action:     action,
					Channel:    ch.Name,
					Subsystems: maskString(fs.Dep(f.Path).Mask),
				})
			}
		}
	}

	out := make([]Rule, 0, len(drafts))
	ordered := make([]draft, 0, len(drafts))
	for _, d := range drafts {
		ordered = append(ordered, d)
	}
	// Empty before Deny (the ordering invariant PseudoRules relies on),
	// then registry emission order so the policy reads like Table I.
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if (a.rule.Action == ActionEmpty) != (b.rule.Action == ActionEmpty) {
			return a.rule.Action == ActionEmpty
		}
		if a.order != b.order {
			return a.order < b.order
		}
		return a.rule.Pattern < b.rule.Pattern
	})
	for _, d := range ordered {
		out = append(out, d.rule)
	}
	return out
}
