package core

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/pseudofs"
)

// FileStatus classifies one pseudo-file after cross-validation.
type FileStatus int

// Cross-validation outcomes. Identical content in both contexts means the
// handler reached the same kernel data (case ② of Fig. 1 — a leak);
// Namespaced means the container got private data (case ①); Partial means
// the container content is a proper subset of host content (provider
// filtering, CC5-style); Masked means policy denied or emptied the read;
// Absent means the file does not exist in the container's tree; Volatile
// means the file changes on every read (e.g. random/uuid) so equality is
// undecidable by content diffing.
const (
	Unknown FileStatus = iota // zero value: path never validated
	Identical
	Namespaced
	Partial
	Masked
	Absent
	Volatile
)

// String implements fmt.Stringer.
func (s FileStatus) String() string {
	switch s {
	case Identical:
		return "identical"
	case Namespaced:
		return "namespaced"
	case Partial:
		return "partial"
	case Masked:
		return "masked"
	case Absent:
		return "absent"
	case Volatile:
		return "volatile"
	default:
		return "unknown"
	}
}

// Finding is the cross-validation result for one file path.
type Finding struct {
	Path   string
	Status FileStatus
	// Overlap is the fraction of container lines that also appear in the
	// host content (meaningful for Namespaced/Partial).
	Overlap float64
}

// CrossValidate implements the left half of Fig. 1: it recursively explores
// every pseudo-file reachable in the container context, reads each file in
// both the container and host contexts at the same instant, aligns by path,
// and pairwise-diffs the contents. This is the serial reference path the
// incremental engine (internal/engine) is differentially tested against,
// and the path it takes when the FS carries a fault injector.
func CrossValidate(host, cont *pseudofs.Mount) []Finding {
	var out []Finding
	for _, path := range cont.Paths() {
		out = append(out, validateOne(host, cont, path))
	}
	return out
}

// Quorum-read parameters: each path is read quorumReads times in the
// container context, and each of those reads retries transient failures
// (pseudofs.ErrTransient) up to readRetries extra attempts. Against a
// flaky observation surface, a single read is evidence of nothing: a
// transient glitch is indistinguishable from a dynamic channel, and one
// denied read is indistinguishable from a permanent mask. The quorum
// resolves both: majority content decides equality, a denied/ok mix marks
// a flapping mask, and only genuine per-read divergence (random/uuid) is
// left classified as Volatile.
const (
	quorumReads = 3
	readRetries = 2
)

// Evidence is what the container-context reads of one path established.
// Content is the majority content among the successful reads (first-seen
// tie-break); OK counts the successful reads, Agree those that returned
// Content, and Denied the reads refused by policy. Reads that failed any
// other way (absent files, dead sensors) count in none of them.
type Evidence struct {
	Content           []byte
	OK, Agree, Denied int
}

// readRetry reads path through m, retrying transient failures up to
// readRetries extra attempts. Non-transient errors return immediately.
func readRetry(m *pseudofs.Mount, path string) (string, error) {
	var (
		data string
		err  error
	)
	for attempt := 0; ; attempt++ {
		data, err = m.Read(path)
		if err == nil || attempt >= readRetries || !errors.Is(err, pseudofs.ErrTransient) {
			return data, err
		}
	}
}

// QuorumEvidence performs the k-read protocol for one path: quorumReads
// container reads, each retrying transient failures.
func QuorumEvidence(m *pseudofs.Mount, path string) Evidence {
	var ev Evidence
	counts := make(map[string]int, quorumReads)
	order := make([]string, 0, quorumReads)
	for i := 0; i < quorumReads; i++ {
		data, err := readRetry(m, path)
		switch {
		case err == nil:
			ev.OK++
			if counts[data] == 0 {
				order = append(order, data)
			}
			counts[data]++
		case errors.Is(err, pseudofs.ErrDenied):
			ev.Denied++
		}
	}
	var majority string
	for _, c := range order {
		if counts[c] > ev.Agree {
			majority, ev.Agree = c, counts[c]
		}
	}
	ev.Content = []byte(majority)
	return ev
}

// ReadEvidence is the evidence of one container read. On a fault-free FS
// it is exactly what the quorum establishes for any path whose render is
// pure (not pseudofs.Dep.Volatile): no read fails transiently and no mask
// flaps, so reads two and three repeat read one. The incremental engine
// classifies from it instead of paying three renders per path.
func ReadEvidence(content []byte, err error) Evidence {
	switch {
	case err == nil:
		return Evidence{Content: content, OK: 1, Agree: 1}
	case errors.Is(err, pseudofs.ErrDenied):
		return Evidence{Denied: 1}
	default:
		return Evidence{}
	}
}

// HostContent is one host-context render of a path, prepared for
// comparison. The incremental engine shares one HostContent among every
// container compared against the same host epoch, so its line set is
// built at most once however many containers diverge from it.
type HostContent struct {
	Data string
	Err  error

	linesOnce sync.Once
	lines     map[string]struct{}
}

// Evidence is the evidence of a container read known to return exactly
// this host read's bytes and error: a read of a path every reader sees
// the same render of (pseudofs.FS.SharedAt), through mounts that neither
// mask nor rewrite it (pseudofs.Mount.PlainAt). Content aliases Data
// instead of copying it, so callers must not write to it.
func (h *HostContent) Evidence() Evidence {
	return ReadEvidence(unsafe.Slice(unsafe.StringData(h.Data), len(h.Data)), h.Err)
}

// overlap returns the fraction of non-empty container lines that appear
// verbatim in the host content.
func (h *HostContent) overlap(cont []byte) float64 {
	h.linesOnce.Do(func() { h.lines = lineSet(h.Data) })
	return lineOverlap(cont, h.lines)
}

// Classify turns container evidence into the finding for one path — the
// single place the cross-validation verdict is decided. host supplies the
// host-context content; it is called at most once, and only when the
// evidence agrees on non-empty content, so it never sees a volatile path.
func Classify(path string, ev Evidence, host func() *HostContent) Finding {
	f := Finding{Path: path}
	switch {
	case ev.OK == 0 && ev.Denied > 0:
		f.Status = Masked
		return f
	case ev.OK == 0:
		// Absent, or persistently unreadable (a dead sensor path reads the
		// same as missing hardware from inside the container).
		f.Status = Absent
		return f
	}
	// Volatility: with at least two successful reads, no two agreeing means
	// the file genuinely changes between back-to-back reads (random/uuid) —
	// equality is undecidable by content diffing. A single transient glitch
	// no longer lands here: torn and stale reads are outvoted by the
	// majority, and failed reads were already retried.
	if ev.OK >= 2 && ev.Agree < 2 {
		f.Status = Volatile
		return f
	}
	if len(ev.Content) == 0 {
		f.Status = Masked // bind-mounted empty file
		return f
	}
	h := host()
	if h.Err != nil {
		// Readable in the container but not on the host can only be a
		// harness inconsistency; treat as namespaced.
		f.Status = Namespaced
		return f
	}
	// A denied/ok mix means the mask flapped mid-quorum: the channel is
	// readable but unreliably so. Degrade an identical match to Partial
	// instead of reporting a hard leak (or erroring out).
	flapped := ev.Denied > 0
	if string(ev.Content) == h.Data {
		f.Overlap = 1
		if flapped {
			f.Status = Partial
		} else {
			f.Status = Identical
		}
		return f
	}
	f.Overlap = h.overlap(ev.Content)
	if f.Overlap >= 0.99 {
		f.Status = Partial
	} else {
		f.Status = Namespaced
	}
	return f
}

// validateOne is the reference validation of one path: quorum-read it in
// the container context and compare against one retrying host read.
func validateOne(host, cont *pseudofs.Mount, path string) Finding {
	return Classify(path, QuorumEvidence(cont, path), func() *HostContent {
		data, err := readRetry(host, path)
		return &HostContent{Data: data, Err: err}
	})
}

// lineSet returns the set of non-empty lines of s.
func lineSet(s string) map[string]struct{} {
	set := make(map[string]struct{})
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			set[l] = struct{}{}
		}
	}
	return set
}

// lineOverlap returns the fraction of non-empty container lines that are
// members of the host line set. It allocates nothing.
func lineOverlap(cont []byte, host map[string]struct{}) float64 {
	var total, hit int
	for len(cont) > 0 {
		var l []byte
		if i := bytes.IndexByte(cont, '\n'); i >= 0 {
			l, cont = cont[:i], cont[i+1:]
		} else {
			l, cont = cont, nil
		}
		if len(l) == 0 {
			continue
		}
		total++
		if _, ok := host[string(l)]; ok {
			hit++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Availability is a channel's per-cloud availability in Table I.
type Availability int

// Channel availability: Available (●) — the channel leaks host data;
// PartiallyAvailable (◐) — filtered but still partially informative;
// Unavailable (○) — masked or hardware-absent.
const (
	Unavailable Availability = iota
	PartiallyAvailable
	Available
)

// String renders the availability glyph used in Table I.
func (a Availability) String() string {
	switch a {
	case Available:
		return "●"
	case PartiallyAvailable:
		return "◐"
	default:
		return "○"
	}
}

// ChannelReport is the per-channel roll-up of file findings.
type ChannelReport struct {
	Channel      Channel
	Availability Availability
	Files        []Finding
}

// channelIndex is a channel registry compiled for path classification:
// every channel's patterns flattened in registry order into one
// pseudofs.GlobIndex, with owner mapping a pattern position back to its
// channel. An exact path listed by two channels appears twice, so it
// resolves to both.
type channelIndex struct {
	globs *pseudofs.GlobIndex
	owner []int
}

func compileChannels(channels []Channel) channelIndex {
	n := 0
	for _, ch := range channels {
		n += len(ch.Paths)
	}
	patterns := make([]string, 0, n)
	owner := make([]int, 0, n)
	for ci, ch := range channels {
		for _, p := range ch.Paths {
			patterns = append(patterns, p)
			owner = append(owner, ci)
		}
	}
	return channelIndex{globs: pseudofs.CompileGlobs(patterns), owner: owner}
}

// Discover returns the findings that leak (Identical or Partial) but match
// no pattern of the given channel registry — the "new channel" output of a
// systematic sweep, which is what distinguishes the paper's cross-
// validation approach from auditing a fixed checklist.
func Discover(channels []Channel, findings []Finding) []Finding {
	idx := compileChannels(channels)
	var out []Finding
	for _, f := range findings {
		if f.Status != Identical && f.Status != Partial {
			continue
		}
		if idx.globs.First(f.Path) < 0 {
			out = append(out, f)
		}
	}
	return out
}

// RollUp groups findings into registry channels and derives each channel's
// availability: Available if any member file reads identical to the host,
// PartiallyAvailable if the best member is a filtered subset (or volatile —
// still host kernel state), else Unavailable. Each channel's Files keep
// finding order, and a finding lands in every channel with a pattern
// matching its path.
func RollUp(channels []Channel, findings []Finding) []ChannelReport {
	idx := compileChannels(channels)
	reports := make([]ChannelReport, len(channels))
	for ci, ch := range channels {
		reports[ci].Channel = ch
	}
	var hits []int
	for _, f := range findings {
		hits = idx.globs.AppendMatches(hits[:0], f.Path)
		last := -1 // positions ascend, so one channel's hits are adjacent
		for _, pi := range hits {
			if ci := idx.owner[pi]; ci != last {
				reports[ci].Files = append(reports[ci].Files, f)
				last = ci
			}
		}
	}
	for i := range reports {
		best := Unavailable
		for _, f := range reports[i].Files {
			switch f.Status {
			case Identical:
				best = Available
			case Partial, Volatile:
				if best < PartiallyAvailable {
					best = PartiallyAvailable
				}
			}
		}
		reports[i].Availability = best
	}
	return reports
}
