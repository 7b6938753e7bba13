package core

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/pseudofs"
	"repro/internal/stats"
)

// Assessment is one Table II row: the channel's registry assessment plus
// the empirically measured variation flag and joint entropy.
type Assessment struct {
	Channel Channel
	// Varying is the measured V metric: does the channel's content change
	// over time?
	Varying bool
	// Entropy is the joint Shannon entropy (Formula 1) of the channel's
	// numeric fields across the sampling window, in bits. It orders the
	// U=false, V=true group.
	Entropy float64
	// Rank is the 1-based Table II position after sorting (ties share
	// order of appearance).
	Rank int
}

// Sampler advances the simulated world between samples (typically
// clock.Advance(dt)).
type Sampler func()

// Assess measures the V metric and channel entropy for each registry
// channel by snapshotting its files nSamples times through the mount,
// advancing the world between snapshots, then ranks everything in Table II
// order:
//
//  1. unique static identifiers (registry),
//  2. implantable channels (registry),
//  3. unique dynamic counters, by growth rate (registry),
//  4. non-unique varying channels, by measured entropy,
//  5. static fleet-wide channels, unranked at the bottom.
func Assess(channels []Channel, m *pseudofs.Mount, advance Sampler, nSamples int) []Assessment {
	if nSamples < 2 {
		nSamples = 2
	}
	reads := channelReads(channels, m.Paths())

	// Collect per-channel content samples over time.
	samples := make([][]string, len(channels)) // [channel][sample]
	for s := 0; s < nSamples; s++ {
		for ci := range channels {
			var b strings.Builder
			for _, p := range reads[ci] {
				content, err := m.Read(p)
				if err != nil {
					continue
				}
				b.WriteString(content)
			}
			samples[ci] = append(samples[ci], b.String())
		}
		if s < nSamples-1 {
			advance()
		}
	}

	out := make([]Assessment, len(channels))
	for ci, ch := range channels {
		a := Assessment{Channel: ch}
		for s := 1; s < len(samples[ci]); s++ {
			if samples[ci][s] != samples[ci][0] {
				a.Varying = true
				break
			}
		}
		if a.Varying {
			a.Entropy = channelEntropy(samples[ci])
		}
		out[ci] = a
	}

	rankAssessments(out)
	return out
}

// channelReads resolves the paths one sample of each channel reads:
// pattern by pattern, every matching path in path order, so a path under
// two of a channel's patterns is read twice.
func channelReads(channels []Channel, paths []string) [][]string {
	idx := compileChannels(channels)
	matched := make([][]string, len(idx.owner)) // [pattern] matching paths
	var hits []int
	for _, p := range paths {
		hits = idx.globs.AppendMatches(hits[:0], p)
		for _, pi := range hits {
			matched[pi] = append(matched[pi], p)
		}
	}
	reads := make([][]string, len(channels))
	pi := 0
	for ci, ch := range channels {
		for range ch.Paths {
			reads[ci] = append(reads[ci], matched[pi]...)
			pi++
		}
	}
	return reads
}

// channelEntropy implements Formula (1): treat every numeric position in
// the file as an independent field X_i, estimate each field's entropy from
// its value distribution over the samples, and sum.
func channelEntropy(contentSamples []string) float64 {
	fields := make(map[int][]float64) // position → values over time
	for _, content := range contentSamples {
		for i, v := range extractNumbers(content) {
			fields[i] = append(fields[i], v)
		}
	}
	var h float64
	for _, vals := range fields {
		if len(vals) < 2 {
			continue
		}
		h += stats.EntropyFloat(vals, 16)
	}
	return h
}

// extractNumbers pulls every decimal number out of the content, in order.
func extractNumbers(content string) []float64 {
	var out []float64
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		if v, err := strconv.ParseFloat(content[start:end], 64); err == nil {
			out = append(out, v)
		}
		start = -1
	}
	for i := 0; i < len(content); i++ {
		c := content[i]
		isNum := c >= '0' && c <= '9' || c == '.'
		if isNum && start < 0 {
			start = i
		}
		if !isNum {
			flush(i)
		}
	}
	flush(len(content))
	return out
}

// rankAssessments orders in place and assigns Rank values.
func rankAssessments(as []Assessment) {
	group := func(a Assessment) int {
		switch a.Channel.Uniqueness {
		case UStatic:
			return 0
		case UImplant:
			return 1
		case UDynamic:
			return 2
		}
		if a.Varying {
			return 3
		}
		return 4
	}
	sort.SliceStable(as, func(i, j int) bool {
		gi, gj := group(as[i]), group(as[j])
		if gi != gj {
			return gi < gj
		}
		switch gi {
		case 2:
			return as[i].Channel.GrowthPerSec > as[j].Channel.GrowthPerSec
		case 3:
			return as[i].Entropy > as[j].Entropy
		default:
			return false // stable: keep registry order
		}
	})
	for i := range as {
		if group(as[i]) == 4 {
			as[i].Rank = 0 // unranked bottom group
			continue
		}
		as[i].Rank = i + 1
	}
}
