package pseudofs

import (
	"slices"
	"strings"
	"testing"
)

func FuzzMatchPattern(f *testing.F) {
	f.Add("/proc/**", "/proc/a/b")
	f.Add("/proc/*/x", "/proc/1/x")
	f.Add("/a/*b*/c", "/a/xbyz/c")
	f.Add("", "")
	f.Add("/**", "/")
	f.Fuzz(func(t *testing.T, pattern, path string) {
		_ = matchPattern(pattern, path) // must not panic on any input
	})
}

// FuzzGlobIndex checks the compiled index against the linear scan it
// replaced. patterns is a newline-separated pattern list. Invariants: First
// equals the position of the first pattern matchPattern accepts (-1 for
// none), and AppendMatches equals every accepting position in list order,
// duplicates included.
func FuzzGlobIndex(f *testing.F) {
	f.Add("/proc/stat\n/proc/**\n/proc/stat", "/proc/stat")                  // duplicate exact
	f.Add("/sys/**\n/sys/a/**\n/**", "/sys/a/b")                             // nested subtrees
	f.Add("/a/*b*c*/d\n/a/x*/d", "/a/xbyc/d")                                // several stars per segment
	f.Add("*\n/*\n*/\n/x/*\n*/x", "/x/")                                     // empty prefix or suffix
	f.Add("/a*a\n/a", "/a")                                                  // prefix and suffix would overlap
	f.Add("/c/cpu*/x/state*/usage\n/c/cpu*/x/*\n/c/cpu1/x/q", "/c/cpu1/x/q") // exact after globs
	f.Add("/a/*/**/b", "/a/x/y/b")                                           // "**" segment before a literal tail
	f.Add("/p*/**\n", "/p*/q")                                               // literal star in a subtree root
	f.Add("", "")
	f.Fuzz(func(t *testing.T, list, path string) {
		patterns := strings.Split(list, "\n")
		x := CompileGlobs(patterns)
		if got, want := x.First(path), linearFirst(patterns, path); got != want {
			t.Fatalf("First(%q) over %q = %d, linear scan %d", path, patterns, got, want)
		}
		if got, want := x.AppendMatches(nil, path), linearAll(patterns, path); !slices.Equal(got, want) {
			t.Fatalf("AppendMatches(%q) over %q = %v, linear scan %v", path, patterns, got, want)
		}
	})
}
