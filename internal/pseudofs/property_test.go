package pseudofs

import (
	"strings"
	"testing"
	"testing/quick"
)

// sanitizeSegment maps arbitrary fuzz input into a path segment without
// separators or wildcards.
func sanitizeSegment(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

func TestPropertyExactPatternMatchesItself(t *testing.T) {
	f := func(a, b, c string) bool {
		path := "/" + sanitizeSegment(a) + "/" + sanitizeSegment(b) + "/" + sanitizeSegment(c)
		return matchPattern(path, path)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubtreePatternMatchesDescendants(t *testing.T) {
	f := func(root, child, grandchild string) bool {
		base := "/" + sanitizeSegment(root)
		pat := base + "/**"
		return matchPattern(pat, base) &&
			matchPattern(pat, base+"/"+sanitizeSegment(child)) &&
			matchPattern(pat, base+"/"+sanitizeSegment(child)+"/"+sanitizeSegment(grandchild)) &&
			!matchPattern(pat, base+"sibling")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStarMatchesAnySegment(t *testing.T) {
	f := func(a, b string) bool {
		pat := "/proc/" + sanitizeSegment(a) + "/*"
		path := "/proc/" + sanitizeSegment(a) + "/" + sanitizeSegment(b)
		return matchPattern(pat, path) && !matchPattern(pat, path+"/deeper")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDenyRuleAlwaysDenies(t *testing.T) {
	// For any path built from fuzz segments, a policy whose first rule
	// denies the whole tree must deny every lookup.
	pol := Policy{Rules: []Rule{{Pattern: "/proc/**", Do: Deny}}}
	f := func(a, b string) bool {
		path := "/proc/" + sanitizeSegment(a) + "/" + sanitizeSegment(b)
		r, ok := pol.rule(pol.Index().First(path))
		return ok && r.Do == Deny
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFirstMatchShadowsLaterRules(t *testing.T) {
	f := func(a string) bool {
		seg := sanitizeSegment(a)
		pol := Policy{Rules: []Rule{
			{Pattern: "/x/" + seg, Do: Allow},
			{Pattern: "/x/**", Do: Deny},
		}}
		idx := pol.Index()
		r1, ok1 := pol.rule(idx.First("/x/" + seg))
		r2, ok2 := pol.rule(idx.First("/x/" + seg + "0"))
		return ok1 && r1.Do == Allow && ok2 && r2.Do == Deny
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
