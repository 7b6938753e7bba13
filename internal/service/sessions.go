package service

import (
	"sync"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/worlds"
)

// sessionPool caches engine-backed experiment sessions across scheduler
// jobs, so a recurring scan's second tick reuses the incremental engine
// (and its render caches) instead of rebuilding the world and re-reading
// every pseudo-file. Sessions are only used for chaos-free requests:
//
//   - a chaos world's fault streams advance on every read, so re-running a
//     scan over a reused world would not be byte-identical to a cold run —
//     chaos requests must pay full cost, and the engine bypasses its caches
//     under fault injection anyway;
//   - a chaos-free session world is frozen at the canonical observation
//     instant, so every pass over it is byte-identical to a cold scan (the
//     engine's invariant), and repeated passes are pure cache hits.
//
// The pool is a worlds.Cache: beyond cap, the least-recently-used session
// is forgotten (seed-varied campaigns stream through without hoarding
// worlds). A forgotten session is not closed — a pass still running on it
// finishes undisturbed — so its world simply stays out of the experiment
// layer's world pool until that pool forgets it too.
type sessionPool struct {
	c *worlds.Cache[sessionKey, *session]
}

// sessionKey names one pooled session: a provider or runtime target's
// inspect world, or (provider "") the discovery testbed, at one seed.
type sessionKey struct {
	provider string
	seed     int64
}

// session is one pooled world: exactly one of insp and disc is set.
type session struct {
	mu   sync.Mutex // serializes passes over one session's world
	insp *experiments.InspectSession
	disc *experiments.DiscoverySession
}

// defaultSessionCap bounds the pool. Table I alone needs six inspect
// sessions; 16 leaves room for a couple of seed-varied campaigns before
// LRU pressure kicks in.
const defaultSessionCap = 16

func newSessionPool(cap int) *sessionPool {
	if cap <= 0 {
		cap = defaultSessionCap
	}
	return &sessionPool{c: worlds.New[sessionKey, *session](cap)}
}

// inspect runs one target inspection through a pooled session, rolled up
// over channels. The first request for a (target, seed) pair builds the
// session (all engine cache misses — byte-identical to the one-shot path);
// later requests are served from the session's caches with zero
// re-renders. The session is shared across channel sets — cross-validation
// is channel-set independent, RollUp is post-processing — so a Table I
// scan and a matrix scan of the same target reuse one world.
func (p *sessionPool) inspect(prof cloud.ProviderProfile, seed int64, channels []core.Channel) (experiments.CloudInspection, error) {
	s, err := p.c.Get(sessionKey{provider: prof.Name, seed: seed}, func() (*session, error) {
		in, err := experiments.NewInspectSession(prof, chaos.Spec{}, seed)
		return &session{insp: in}, err
	})
	if err != nil {
		return experiments.CloudInspection{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insp.InspectChannels(channels, 0), nil
}

// discovery runs the systematic sweep through a pooled testbed session.
func (p *sessionPool) discovery(seed int64) *experiments.DiscoveryResult {
	s, _ := p.c.Get(sessionKey{seed: seed}, func() (*session, error) {
		return &session{disc: experiments.NewDiscoverySession(chaos.Spec{}, seed)}, nil
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.disc.Discover()
}

// EngineInfo is the aggregate engine view the /v1/engine endpoint serves:
// session-pool effectiveness plus the summed cache counters of every live
// session engine.
type EngineInfo struct {
	// Sessions is the number of live pooled sessions.
	Sessions int `json:"sessions"`
	// SessionHits / SessionMisses count pool lookups that reused vs built
	// a session world.
	SessionHits   uint64 `json:"session_hits"`
	SessionMisses uint64 `json:"session_misses"`
	// Stats is the element-wise sum of every live session engine's
	// counters (see engine.Stats).
	Stats engine.Stats `json:"stats"`
	// SnapshotRestores counts session worlds reinstated from a
	// copy-on-write snapshot instead of a full rebuild (process-wide,
	// covers the CLI experiment paths too).
	SnapshotRestores uint64 `json:"snapshot_restores"`
}

// info snapshots the pool. Session engines are read without taking the
// sessions' pass locks — engine.Stats is internally synchronized.
func (p *sessionPool) info() EngineInfo {
	hits, misses := p.c.Stats()
	out := EngineInfo{
		Sessions:         p.c.Len(),
		SessionHits:      hits,
		SessionMisses:    misses,
		SnapshotRestores: experiments.SnapshotRestores(),
	}
	for _, s := range p.c.Values() {
		if s.insp != nil {
			out.Stats = out.Stats.Add(s.insp.EngineStats())
		} else {
			out.Stats = out.Stats.Add(s.disc.EngineStats())
		}
	}
	return out
}
