package engine

import "repro/internal/kernel"

// Stats is a point-in-time snapshot of the engine's cache effectiveness
// and the kernel's current epochs — what /v1/engine serves.
type Stats struct {
	// Passes counts incremental validation passes; BypassedPasses counts
	// passes that ran uncached because a fault injector was installed.
	Passes         uint64 `json:"passes"`
	BypassedPasses uint64 `json:"bypassed_passes"`

	// FindingHits/FindingMisses count per-path verdicts served from cache
	// vs re-validated.
	FindingHits   uint64 `json:"finding_hits"`
	FindingMisses uint64 `json:"finding_misses"`

	// HostHits counts host-side reads shared from the per-epoch render
	// cache; HostRenders counts genuine host renders.
	HostHits    uint64 `json:"host_hits"`
	HostRenders uint64 `json:"host_renders"`

	// CachedFindings and CachedHostPaths are current cache sizes: the
	// (container, path) verdicts held, and the paths whose host content at
	// their latest epoch a classification has used.
	CachedFindings  int `json:"cached_findings"`
	CachedHostPaths int `json:"cached_host_paths"`

	// Generation is the kernel's total mutation count; Epochs breaks it
	// down per dirty-tracking subsystem.
	Generation uint64            `json:"generation"`
	Epochs     map[string]uint64 `json:"epochs"`
}

// Stats returns a snapshot of the engine's counters and the underlying
// kernel's generation state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	var nf, nh int
	for _, s := range e.slabs {
		nf += int(s.cached.Load())
	}
	for _, h := range e.hostc {
		if h != nil && h.asked.Load() {
			nh++
		}
	}
	e.mu.Unlock()
	eps := e.fs.Kernel().Epochs()
	m := make(map[string]uint64, int(kernel.NumSubsystems))
	for s := kernel.Subsystem(0); s < kernel.NumSubsystems; s++ {
		m[s.String()] = eps[s]
	}
	return Stats{
		Passes:          e.passes.Load(),
		BypassedPasses:  e.bypassedPasses.Load(),
		FindingHits:     e.findingHits.Load(),
		FindingMisses:   e.findingMisses.Load(),
		HostHits:        e.hostHits.Load(),
		HostRenders:     e.hostRenders.Load(),
		CachedFindings:  nf,
		CachedHostPaths: nh,
		Generation:      eps.Combined(kernel.MaskAll),
		Epochs:          m,
	}
}

// Add returns the element-wise sum of two stats snapshots (cache sizes and
// generation state are taken from s when t is zero, otherwise summed /
// maxed as appropriate). Service code aggregates per-session engines with
// it.
func (s Stats) Add(t Stats) Stats {
	out := Stats{
		Passes:          s.Passes + t.Passes,
		BypassedPasses:  s.BypassedPasses + t.BypassedPasses,
		FindingHits:     s.FindingHits + t.FindingHits,
		FindingMisses:   s.FindingMisses + t.FindingMisses,
		HostHits:        s.HostHits + t.HostHits,
		HostRenders:     s.HostRenders + t.HostRenders,
		CachedFindings:  s.CachedFindings + t.CachedFindings,
		CachedHostPaths: s.CachedHostPaths + t.CachedHostPaths,
	}
	// Generations of different kernels are not comparable; report the max
	// so the field stays monotone for the common single-session case.
	out.Generation = s.Generation
	out.Epochs = s.Epochs
	if t.Generation > out.Generation {
		out.Generation = t.Generation
		out.Epochs = t.Epochs
	}
	return out
}
