package pseudofs

// The reference oracles for GlobIndex: the linear pattern-by-pattern scans
// it replaced. Internal tests use them directly; the exported names serve
// the world-level differential test in package pseudofs_test.

// linearFirst tries every pattern in list order and returns the position
// of the first that matches path, or -1.
func linearFirst(patterns []string, path string) int {
	for i, p := range patterns {
		if matchPattern(p, path) {
			return i
		}
	}
	return -1
}

// linearAll returns the position of every pattern matching path, in list
// order.
func linearAll(patterns []string, path string) []int {
	var out []int
	for i, p := range patterns {
		if matchPattern(p, path) {
			out = append(out, i)
		}
	}
	return out
}

// linearDep is the dependency-table scan layouts used to run per path.
func linearDep(path string) Dep {
	for _, r := range depTable {
		if r.Pattern == path || matchPattern(r.Pattern, path) {
			return r.Dep
		}
	}
	return depAll
}

// linearLookup is the rule-by-rule scan a Mount's policy decision replaced.
func linearLookup(p Policy, path string) (Rule, bool) {
	for _, r := range p.Rules {
		if matchPattern(r.Pattern, path) {
			return r, true
		}
	}
	return Rule{}, false
}

var (
	MatchPattern = matchPattern
	LinearDep    = linearDep
	LinearLookup = linearLookup
)

// rule returns Rules[i], or ok false for the no-match position -1.
func (p Policy) rule(i int) (Rule, bool) {
	if i < 0 {
		return Rule{}, false
	}
	return p.Rules[i], true
}

// LookupRule exposes the mount's policy decision for a path.
func (m *Mount) LookupRule(path string) (Rule, bool) {
	return m.policy.rule(m.ruleAt(m.fs.position(path), path))
}

// MountPolicy exposes the policy the mount was built with.
func (m *Mount) MountPolicy() Policy { return m.policy }
