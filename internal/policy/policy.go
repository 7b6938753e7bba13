package policy

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/kernel"
	"repro/internal/pseudofs"
)

// Action is what a policy rule does to reads matching its pattern.
// "empty" masks content while letting the read succeed (a bind-mounted
// empty file); "deny" fails the read with EACCES. The distinction is the
// heart of minimal synthesis: both flip a channel's verdict to masked, but
// only "empty" keeps the benign reads under the pattern working.
type Action string

// The two actions a synthesized rule can take.
const (
	ActionDeny  Action = "deny"
	ActionEmpty Action = "empty"
)

// pseudo converts the serialized action to the pseudofs rule action.
func (a Action) pseudo() (pseudofs.Action, error) {
	switch a {
	case ActionDeny:
		return pseudofs.Deny, nil
	case ActionEmpty:
		return pseudofs.Empty, nil
	default:
		return 0, fmt.Errorf("policy: unknown action %q", a)
	}
}

// Rule is one ordered masking rule of a policy. First match wins when the
// policy is applied, exactly like pseudofs.Policy.
type Rule struct {
	// Pattern is a pseudofs glob ('*' within a segment, trailing "/**").
	Pattern string `json:"pattern"`
	// Action is "deny" or "empty".
	Action Action `json:"action"`
	// Channel names the Table I channel this rule closes (provenance).
	Channel string `json:"channel,omitempty"`
	// Subsystems lists the kernel dirty-tracking subsystems the covered
	// paths render from (pseudofs.Dep masks), tying the rule to the epoch
	// machinery that re-validates it after world changes.
	Subsystems string `json:"subsystems,omitempty"`
}

// Policy is a synthesized (or hand-written) masking policy for one
// provider profile.
type Policy struct {
	// Provider is the cloud profile the policy was synthesized against.
	Provider string `json:"provider"`
	// Seed is the world seed used during mining and synthesis.
	Seed int64 `json:"seed"`
	// Rules are the ordered masking rules: every "empty" rule sorts ahead
	// of every "deny" rule so first-match-wins keeps the benign surface
	// readable even where a broad deny glob overlaps it.
	Rules []Rule `json:"rules"`
	// BenignPaths is the mined benign read surface the policy was
	// constrained by (successful reads only, baseline-broken excluded).
	BenignPaths []string `json:"benign_paths,omitempty"`
}

// PseudoRules converts the policy to pseudofs rules, preserving order.
func (p Policy) PseudoRules() ([]pseudofs.Rule, error) {
	out := make([]pseudofs.Rule, 0, len(p.Rules))
	for _, r := range p.Rules {
		if r.Pattern == "" {
			return nil, fmt.Errorf("policy: rule with empty pattern")
		}
		do, err := r.Action.pseudo()
		if err != nil {
			return nil, err
		}
		out = append(out, pseudofs.Rule{Pattern: r.Pattern, Do: do})
	}
	return out, nil
}

// Name returns the applied-policy name: distinct per provider so mounts
// carrying different synthesized policies are distinguishable.
func (p Policy) Name() string { return "synthesized/" + p.Provider }

// Encode renders the policy as deterministic, indented JSON (trailing
// newline included) — the on-disk format defensebench -policy reads.
func (p Policy) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Decode parses a policy from its JSON form, rejecting unknown fields and
// anything after the policy object so a typo'd or concatenated
// hand-written policy fails loudly instead of silently no-opping.
func Decode(data []byte) (Policy, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Policy
	if err := dec.Decode(&p); err != nil {
		return Policy{}, fmt.Errorf("policy: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Policy{}, fmt.Errorf("policy: decode: data after the policy object")
	}
	if _, err := p.PseudoRules(); err != nil {
		return Policy{}, err
	}
	return p, nil
}

// LoadFile reads and decodes a policy file.
func LoadFile(path string) (Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Policy{}, fmt.Errorf("policy: %w", err)
	}
	return Decode(data)
}

// maskString renders a subsystem mask the way the Rule.Subsystems field
// stores it: sorted subsystem names joined by "|", or "static" for the
// zero mask (immutable files).
func maskString(mask kernel.SubsystemMask) string {
	if mask == 0 {
		return "static"
	}
	var names []string
	for s := kernel.Subsystem(0); s < kernel.NumSubsystems; s++ {
		if mask&(1<<s) != 0 {
			names = append(names, s.String())
		}
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
