// Package engine is the epoch-aware incremental detection engine: the same
// cross-validation sweep as internal/core, but with dirty tracking so
// repeated and fleet-wide scans only re-render what changed.
//
// The paper's one-shot tool re-reads every pseudo-file on every pass, which
// is fine once but is the hot path of leaksd's recurring scans. The engine
// follows the snapshot/generation-counter design of procfs-scraping
// monitors: every kernel mutation bumps per-subsystem generation counters
// (kernel.Epochs), every pseudo-file declares which subsystems its render
// reads (pseudofs.Dep), and the engine caches per-path findings keyed by
// the path's combined source epoch (pseudofs.PathEpoch). A path is
// re-validated only when its source epoch moved; everything else is served
// from cache, byte-identical to what a cold scan would produce.
//
// Cache layout. The FS path set is its shared pseudofs layout, fixed at
// pseudofs.Build, and a path's position in it is the path's identity: the
// engine reads epochs, dependency tags and content by position
// (FS.PathEpochAt, FS.DepAt, Mount.AppendReadAt), so a pass makes no
// per-path map probe. Every cache is a slice indexed by that position:
//
//   - Finding slabs, one per container mount: slot i holds the verdict for
//     path i (status and overlap; the path is the layout's) and the source
//     epoch it was computed at. A slot holds no pointer.
//   - Host entries, one slot per path, once-per-epoch: during a fleet pass
//     over N containers, the host-side read of each path is rendered at
//     most once and shared by all N validations, together with its line
//     set for the overlap measure, built at most once.
//
// A pass computes every path's source epoch once and refreshes stale host
// entries under the engine lock before it fans out; a pass's fresh entries
// come from one block, and a pass already in flight keeps the entries it
// began with. Fleet passes fan out by container; a pass holds its
// container's slab lock while it fills the slab, so concurrent passes over
// one container (a duplicated shard delivery) serialize instead of racing.
//
// One read per path and epoch for the whole fleet. core.CrossValidate
// reads every path three times in the container context and takes a
// majority, because under fault injection a single read proves nothing.
// On a fault-free FS the extra reads cannot differ: only chaos injectors
// fail transiently or flap a mask, and renders are pure while the clock is
// paused. So a re-validation classifies from a single container read
// (core.ReadEvidence) through the same classifier core uses
// (core.Classify). Most paths need no container read at all. A path whose
// render is global (pseudofs.FS.SharedAt: its render takes no View, and no
// Replace handler or injector intervenes) and that neither the container's
// nor the host's policy masks or rewrites (pseudofs.Mount.PlainAt) reads
// the same bytes in every context, so the container's evidence is the
// pass's host entry (core.HostContent.Evidence), rendered once per epoch
// for every container. View renders, Replace handlers (stage-2/3 fixes),
// power-namespace providers and Deny, Empty and Filter rules keep their
// container read. Only paths tagged pseudofs.Dep.Volatile (random/uuid)
// keep the full quorum, which both detects their volatility and keeps the
// uuid generator's draws identical. core keeps the quorum for every path:
// it is the chaos path and the reference oracle the engine is
// differentially tested against.
//
// The host counters count what classification asks for, not what the
// engine renders: a path's first core.Classify request for host content
// in an epoch is its host render, later ones are hits, whether or not
// shared evidence rendered the entry first.
//
// Byte-identity guarantee: at any epoch, Validate returns exactly what
// core.CrossValidate would return on the same mounts at the same instant.
// This rests on four invariants: (1) pseudo-file renders are pure for a
// fixed view while the clock is paused, unless tagged volatile, (2)
// dependency tags are conservative — a mutation may dirty more paths than
// it changed but never fewer, (3) volatile paths are classified by the
// container quorum before the host read, so their content is never cached,
// and (4) a shared position read plain through both mounts renders the
// same bytes and error for the host and every container, because a global
// render cannot name the reader's View.
//
// Chaos bypass: a fault injector (internal/chaos) consumes per-read
// randomness, so skipping reads would change every subsequent fault
// decision. When the FS carries an injector the engine disables itself and
// delegates to the uncached quorum sweep — chaos runs pay full cost by
// design.
//
// Concurrency: the engine is safe for concurrent use, but the determinism
// contract is the same as core's — run passes while the simulation clock
// is paused. A pass fans out across containers only; each container's
// paths are validated in path order, so output is byte-identical at any
// worker count.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/pseudofs"
)

// Engine is an incremental cross-validation engine over one host mount.
// Create with New; validate container mounts of the same FS against it.
type Engine struct {
	host     *pseudofs.Mount
	fs       *pseudofs.FS
	paths    []string // the FS's layout paths, in position order
	volatile []bool   // FS.DepAt(i).Volatile, by position

	mu    sync.Mutex
	slabs map[*pseudofs.Mount]*slab
	hostc []*hostEntry // by path index; nil until a pass first needs it

	// Counters (atomic: passes run concurrently).
	passes         atomic.Uint64
	bypassedPasses atomic.Uint64
	findingHits    atomic.Uint64
	findingMisses  atomic.Uint64
	hostHits       atomic.Uint64
	hostRenders    atomic.Uint64
}

// slab is one container mount's finding cache, indexed by path position.
// A pass holds mu while it fills the slab.
type slab struct {
	mu      sync.Mutex
	entries []findingEntry
	cached  atomic.Int64 // filled entries, for Stats without mu
}

// findingEntry is one slab slot: the verdict for the slab's path at the
// source epoch it was computed at. The path is the engine's e.paths[i], so
// the slot holds no pointer: refilling it needs no write barrier and the
// GC never scans a slab.
type findingEntry struct {
	epoch   uint64
	overlap float64
	status  core.FileStatus
	filled  bool
}

// hostEntry holds the host read of one path at one epoch. It is rendered
// at most once, by the first validation of the epoch that needs it, and
// shared by every container of every pass at that epoch.
type hostEntry struct {
	epoch   uint64
	once    sync.Once
	asked   atomic.Bool // core.Classify has asked for the content
	content core.HostContent
}

// pass is one validation pass's view of the caches: every path's source
// epoch and current host entry, taken once under the engine lock, and the
// slab of each container the pass validates.
type pass struct {
	epochs []uint64
	hosts  []*hostEntry
	slabs  []*slab
}

// tally accumulates one container's counter increments, so the shared
// atomic counters are touched once per container instead of per path.
type tally struct {
	hits, misses, hostHits, hostRenders uint64
}

// bufPool holds container-read buffers; a fault-free read appends into
// one and is compared in place, so a container read allocates nothing.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// New creates an engine over the given host-context mount. The mount
// should be dedicated to the engine (mounts are cheap; see
// cloud.Server.HostMount).
func New(host *pseudofs.Mount) *Engine {
	fs := host.FS()
	paths := fs.Paths()
	volatile := make([]bool, len(paths))
	for i := range paths {
		volatile[i] = fs.DepAt(i).Volatile
	}
	return &Engine{
		host:     host,
		fs:       fs,
		paths:    paths,
		volatile: volatile,
		slabs:    make(map[*pseudofs.Mount]*slab),
		hostc:    make([]*hostEntry, len(paths)),
	}
}

// Host returns the engine's host-context mount.
func (e *Engine) Host() *pseudofs.Mount { return e.host }

// Validate is the incremental core.CrossValidate: findings for every path
// visible in the container mount, in path order, serving unchanged paths
// from cache. Output is byte-identical to a cold core.CrossValidate on
// (Host(), cont) at the same instant.
func (e *Engine) Validate(cont *pseudofs.Mount) []core.Finding {
	return e.FleetValidate([]*pseudofs.Mount{cont}, 1)[0]
}

// FleetValidate validates many container mounts in one batched pass,
// fanning the containers out over one worker pool (workers <= 0 selects
// GOMAXPROCS); each container's paths are validated serially. The host
// render cache guarantees each host-side read is performed at most once
// per epoch and shared across all containers, instead of once per (host,
// container) pair as the naive loop would. Results are returned per
// container, in input order, each in path order — byte-identical to
// calling core.CrossValidate per container.
func (e *Engine) FleetValidate(conts []*pseudofs.Mount, workers int) [][]core.Finding {
	for _, c := range conts {
		e.checkFS(c)
	}
	if len(conts) == 0 {
		return nil
	}
	if e.fs.Faulty() {
		// Chaos bypass, in the exact order the serial per-container loop
		// would read (injector streams are order-sensitive).
		e.bypassedPasses.Add(1)
		out := make([][]core.Finding, len(conts))
		for i, c := range conts {
			out[i] = core.CrossValidate(e.host, c)
		}
		return out
	}
	e.passes.Add(1)
	p := e.begin(conts)
	out, err := parallel.Map(workers, conts, func(ci int, c *pseudofs.Mount) ([]core.Finding, error) {
		return e.validate(c, p, ci), nil
	})
	if err != nil {
		panic(err) // only a panicking validation fails; rethrow it with its stack
	}
	return out
}

// begin starts a pass: under the engine lock it computes each path's
// source epoch, replaces the host entries of paths whose epoch moved with
// entries from one fresh block, and resolves (creating on first sight)
// each container's slab. Entries are replaced, never reset, so a pass in
// flight keeps rendering into the entries it began with.
func (e *Engine) begin(conts []*pseudofs.Mount) *pass {
	p := &pass{
		epochs: make([]uint64, len(e.paths)),
		hosts:  make([]*hostEntry, len(e.paths)),
		slabs:  make([]*slab, len(conts)),
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	stale := 0
	for i := range e.paths {
		ep := e.fs.PathEpochAt(i)
		if h := e.hostc[i]; h == nil || h.epoch != ep {
			stale++
		}
		p.epochs[i] = ep
	}
	block := make([]hostEntry, stale)
	for i, ep := range p.epochs {
		h := e.hostc[i]
		if h == nil || h.epoch != ep {
			h, block = &block[0], block[1:]
			h.epoch = ep
			e.hostc[i] = h
		}
		p.hosts[i] = h
	}
	for ci, c := range conts {
		s := e.slabs[c]
		if s == nil {
			s = &slab{entries: make([]findingEntry, len(e.paths))}
			e.slabs[c] = s
		}
		p.slabs[ci] = s
	}
	return p
}

// validate fills cont's slab (the pass's slab ci) under the slab lock and
// returns cont's findings in path order.
func (e *Engine) validate(cont *pseudofs.Mount, p *pass, ci int) []core.Finding {
	s := p.slabs[ci]
	s.mu.Lock()
	defer s.mu.Unlock()
	var t tally
	out := make([]core.Finding, len(e.paths))
	bp := bufPool.Get().(*[]byte)
	for i := range out {
		out[i], *bp = e.fill(cont, s, p, i, *bp, &t)
	}
	bufPool.Put(bp)
	e.record(t)
	return out
}

// fill returns the finding for path i of one container, from its slab slot
// when the path's source epoch is unchanged, else re-validating it and
// storing the result. buf is scratch for the container read; the possibly
// grown buffer is returned for reuse.
func (e *Engine) fill(cont *pseudofs.Mount, s *slab, p *pass, i int, buf []byte, t *tally) (core.Finding, []byte) {
	ent := &s.entries[i]
	if ent.filled && ent.epoch == p.epochs[i] {
		t.hits++
		return core.Finding{Path: e.paths[i], Status: ent.status, Overlap: ent.overlap}, buf
	}
	t.misses++
	path := e.paths[i]
	h := p.hosts[i]
	var ev core.Evidence
	switch {
	case e.volatile[i]:
		ev = core.QuorumEvidence(cont, path)
	case e.fs.SharedAt(i) && e.host.PlainAt(i) && cont.PlainAt(i):
		// The container read would return the host read's bytes: take
		// them from the pass's host entry instead of rendering again.
		ev = e.hostRead(h, path).Evidence()
	default:
		var err error
		buf, err = cont.AppendReadAt(buf[:0], i)
		ev = core.ReadEvidence(buf, err)
	}
	f := core.Classify(path, ev, func() *core.HostContent { return e.hostContent(h, path, t) })
	if !ent.filled {
		s.cached.Add(1)
	}
	*ent = findingEntry{epoch: p.epochs[i], overlap: f.Overlap, status: f.Status, filled: true}
	return f, buf
}

// hostRead returns the host read of path at the entry's epoch, rendering
// it only if no validation of this epoch has yet.
func (e *Engine) hostRead(h *hostEntry, path string) *core.HostContent {
	h.once.Do(func() { h.content.Data, h.content.Err = e.host.Read(path) })
	return &h.content
}

// hostContent is hostRead on core.Classify's request. The epoch's first
// request counts as its host render and later ones as shared hits, even
// when shared-path evidence rendered the entry before, so the counters
// match a pass that renders host content only for classification.
func (e *Engine) hostContent(h *hostEntry, path string, t *tally) *core.HostContent {
	c := e.hostRead(h, path)
	// Load before the CAS: every container of a fleet pass asks for the
	// same entries, and a CAS that fails still takes the cache line
	// exclusive, bouncing it between the cores of the fan-out.
	if !h.asked.Load() && h.asked.CompareAndSwap(false, true) {
		t.hostRenders++
	} else {
		t.hostHits++
	}
	return c
}

// record adds one container's tally to the engine counters.
func (e *Engine) record(t tally) {
	e.findingHits.Add(t.hits)
	e.findingMisses.Add(t.misses)
	e.hostHits.Add(t.hostHits)
	e.hostRenders.Add(t.hostRenders)
}

// checkFS panics when a container mount belongs to a different FS than the
// engine's host mount — always a wiring bug: epochs of one kernel say
// nothing about another's renders.
func (e *Engine) checkFS(cont *pseudofs.Mount) {
	if cont.FS() != e.fs {
		panic(fmt.Sprintf("engine: container mount FS %p does not match host FS %p", cont.FS(), e.fs))
	}
}

// Reset drops every cache and zeroes no counters (stats are cumulative for
// the engine's lifetime). The next pass re-renders everything — the same
// effect as the first pass of a fresh engine.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slabs = make(map[*pseudofs.Mount]*slab)
	e.hostc = make([]*hostEntry, len(e.paths))
}

// Forget drops the cached findings of one container mount (call when a
// container is terminated); the shared host render cache is kept.
func (e *Engine) Forget(cont *pseudofs.Mount) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.slabs, cont)
}
