package experiments

import (
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/worlds"
)

// This file is the experiment layer's world-snapshot plumbing. Building a
// datacenter is the dominant cost of the cold paths — the Fig. 3 trio
// drives 1920 warmup ticks per world, an inspect session 30 — and the
// seed loops rebuild the *same* world many times per run. With
// cloud.WorldState the layer builds each distinct world once, captures it
// at the post-warmup instant, and rewinds instead of rebuilding. The
// restore contract (byte-identical continuation, see cloud.WorldState) is
// what keeps every golden unchanged.

// snapshotRestores counts world restores that replaced a full rebuild
// (exported to leaksd as leaksd_engine_snapshot_restores_total).
var snapshotRestores atomic.Uint64

// SnapshotRestores returns the number of world restores that replaced a
// rebuild since process start.
func SnapshotRestores() uint64 { return snapshotRestores.Load() }

// pooledWorld is one cached world plus its post-warmup capture. aux
// carries whatever build products the caller needs back alongside the
// datacenter (probe container, rack under attack, …) — the restore
// contract keeps those handles valid across rewinds. inUse guards the
// window between checkout and release: a concurrent checkout of the same
// key builds a throwaway world instead of sharing. used is only touched by
// the holder; it marks a world that must be rewound before its next use.
type pooledWorld struct {
	dc    *cloud.Datacenter
	aux   any
	snap  *cloud.WorldState // nil for a throwaway world
	inUse atomic.Bool
	used  bool
}

// poolKey identifies one warmed-up world: the builder that made it, the
// provider profile (inspect worlds only), the observation-surface chaos
// and the datacenter seed.
type poolKey struct {
	kind, provider string
	chaos          chaos.Spec
	seed           int64
}

// worldPoolCap bounds how many distinct worlds stay resident; beyond it
// the least-recently-used one is forgotten.
const worldPoolCap = 32

var worldPool = worlds.New[poolKey, *pooledWorld](worldPoolCap)

// checkoutWorld returns a warmed-up world for key: the pooled one, rewound
// to its post-warmup capture if an earlier holder used it, or a fresh
// build (captured and pooled on the key's first checkout, a throwaway
// while the pooled one is checked out elsewhere). Release it when done.
func checkoutWorld(key poolKey, build func() (*cloud.Datacenter, any, error)) (*pooledWorld, error) {
	w, err := worldPool.Get(key, func() (*pooledWorld, error) {
		dc, aux, err := build()
		if err != nil {
			return nil, err
		}
		return &pooledWorld{dc: dc, aux: aux, snap: dc.Snapshot()}, nil
	})
	if err != nil {
		return nil, err
	}
	if !w.inUse.CompareAndSwap(false, true) {
		dc, aux, err := build()
		if err != nil {
			return nil, err
		}
		return &pooledWorld{dc: dc, aux: aux}, nil
	}
	if w.used {
		w.dc.Restore(w.snap)
		snapshotRestores.Add(1)
	}
	w.used = true
	return w, nil
}

// release returns a checked-out world to the pool. The caller must not
// touch the world afterwards; the next checkout rewinds it. Releasing a
// throwaway world, or one the pool has since forgotten, changes nothing
// anyone can check out.
func (w *pooledWorld) release() { w.inUse.Store(false) }
