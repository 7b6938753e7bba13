package main

import (
	"hash/fnv"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the fewest samples that must lie beyond a tail value.
const tailBeyond = 10

// tail is the benchmark's tail rule: the sample with max(10, ⌊n/10⌋)
// samples beyond it. That is the highest percentile with ten samples
// beyond it, capped at the 90th: with 54 samples the 81st percentile,
// with 100 or more the 90th. The cap keeps the tail inside the program's
// own slow operations (those that overlap a garbage collection, say)
// instead of among the handful a busy host stalls, which made higher
// percentiles of millisecond operations swing several-fold from run to
// run. With ten samples or fewer no percentile qualifies, and tail falls
// back to the median, reported as percentile 50.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n <= tailBeyond {
		return median(xs), 50
	}
	s := sorted(xs)
	rank := n - max(tailBeyond, n/10) // 1-based
	return s[rank-1], 100 * float64(rank) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// stream is the benchmark's seeded input generator (splitmix64). Every
// workload input — targets, seeds, query strings, sample choices — is
// drawn from streams derived from the workload seed, so one seed always
// yields the same inputs and the program never sees the seed itself.
type stream struct{ s uint64 }

// newStream derives an independent stream for one input family: the name
// keeps families apart, so adding draws to one never shifts another.
func newStream(seed int64, name string) *stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // hash.Hash never fails
	r := &stream{s: uint64(seed) ^ h.Sum64()}
	r.next() // decorrelate nearby seeds before the first draw
	return r
}

func (r *stream) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *stream) intn(n int) int { return int(r.next() % uint64(n)) }

// chance reports true with probability p.
func (r *stream) chance(p float64) bool {
	return float64(r.next()>>11)/float64(1<<53) < p
}
