package pseudofs

import "strings"

// GlobIndex is an ordered pattern list compiled for repeated matching in
// the Rule glob language. It answers the two questions every consumer
// asks of a rule list: which pattern matches a path first (First — the
// dependency table and masking policies, where the first match wins), and
// which patterns match at all (AppendMatches — channel registries, where a
// path belongs to every channel with a matching pattern). Both answers are
// exactly those of trying matchPattern on every pattern in list order.
//
// Exact patterns (no '*', no "/**" suffix) match only their own text, so
// they live in a map. Every other pattern keeps the literal text a
// matching path must start and end with: before the first '*' and after
// the last '*' for segment globs, the subtree root for "/**" patterns.
// Those two comparisons reject nearly every path before matchPattern runs.
//
// A GlobIndex is immutable after CompileGlobs and safe for concurrent use.
type GlobIndex struct {
	// exact maps a pattern to its first position in the list; sameNext
	// chains each exact position to the next position holding the same
	// pattern (-1 ends the chain), so duplicates keep list order.
	exact    map[string]int32
	sameNext []int32
	// globs holds the wildcard and subtree patterns in list order.
	globs []globPattern
}

// globPattern is one non-exact pattern with its literal pre-filter.
// matchPattern decides the paths that pass it on the span between head and
// tail: the pattern's leading and trailing whole literal segments, which
// the pre-filter has already compared byte for byte.
type globPattern struct {
	pos            int32
	pattern        string
	prefix, suffix string
	head, tail     int
}

// CompileGlobs compiles patterns, in order, into a GlobIndex.
func CompileGlobs(patterns []string) *GlobIndex {
	x := &GlobIndex{
		exact:    make(map[string]int32, len(patterns)),
		sameNext: make([]int32, len(patterns)),
	}
	for i, p := range patterns {
		pos := int32(i)
		x.sameNext[i] = -1
		if sub, ok := strings.CutSuffix(p, "/**"); ok {
			// matchPattern compares a subtree root literally, stars and all.
			x.globs = append(x.globs, globPattern{pos: pos, pattern: p, prefix: sub})
			continue
		}
		if first := strings.IndexByte(p, '*'); first >= 0 {
			g := globPattern{pos: pos, prefix: p[:first], suffix: p[strings.LastIndexByte(p, '*')+1:]}
			g.head = strings.LastIndexByte(g.prefix, '/') + 1
			if slash := strings.IndexByte(g.suffix, '/'); slash >= 0 {
				g.tail = len(g.suffix) - slash
			}
			if strings.HasSuffix(p[:len(p)-g.tail], "/**") {
				g.tail = 0 // "**" is a segment glob here, not a subtree
			}
			g.pattern = p[g.head : len(p)-g.tail]
			x.globs = append(x.globs, g)
			continue
		}
		prev, ok := x.exact[p]
		if !ok {
			x.exact[p] = pos
			continue
		}
		for x.sameNext[prev] >= 0 {
			prev = x.sameNext[prev]
		}
		x.sameNext[prev] = pos
	}
	return x
}

// match reports whether path matches g. The pre-filter is sound: outside
// the '*' segments matchPattern compares bytes exactly, the first starred
// segment must start with the text before its first '*', the last starred
// segment must end with the text after its last '*', and the two literals
// cover disjoint bytes of the path; a subtree pattern matches only its
// root and paths under it. So a path failing the pre-filter cannot match.
// Trimming is sound for the same reason: a whole literal segment matches
// only itself, and the pre-filter has just found it in place, so
// matchPattern's verdict on the rest of the path is its verdict on all of
// it.
func (g *globPattern) match(path string) bool {
	return len(path) >= len(g.prefix)+len(g.suffix) &&
		strings.HasPrefix(path, g.prefix) && strings.HasSuffix(path, g.suffix) &&
		matchPattern(g.pattern, path[g.head:len(path)-g.tail])
}

// First returns the list position of the first pattern matching path, or
// -1 when none does.
func (x *GlobIndex) First(path string) int {
	best, ok := x.exact[path]
	if !ok {
		best = -1
	}
	for i := range x.globs {
		g := &x.globs[i]
		if ok && g.pos > best {
			break
		}
		if g.match(path) {
			return int(g.pos)
		}
	}
	return int(best)
}

// AppendMatches appends the list position of every pattern matching path
// to dst, in ascending order, and returns the extended slice.
func (x *GlobIndex) AppendMatches(dst []int, path string) []int {
	e, ok := x.exact[path]
	if !ok {
		e = -1
	}
	for i := range x.globs {
		g := &x.globs[i]
		for e >= 0 && e < g.pos {
			dst = append(dst, int(e))
			e = x.sameNext[e]
		}
		if g.match(path) {
			dst = append(dst, int(g.pos))
		}
	}
	for e >= 0 {
		dst = append(dst, int(e))
		e = x.sameNext[e]
	}
	return dst
}
