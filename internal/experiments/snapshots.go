package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/cloud"
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
// key builds a throwaway world instead of sharing.
type pooledWorld struct {
	dc    *cloud.Datacenter
	aux   any
	snap  *cloud.WorldState
	inUse bool
}

var (
	worldPoolMu sync.Mutex
	worldPool   = make(map[string]*pooledWorld)
)

// worldPoolCap bounds how many distinct session worlds stay resident; keys
// beyond the cap build uncached (correct, just not accelerated).
const worldPoolCap = 32

func inspectPoolKey(kind, provider string, spec chaos.Spec, seed int64) string {
	return fmt.Sprintf("%s|%s|%g|%d|%d", kind, provider, spec.Rate, spec.Seed, seed)
}

// checkoutWorld returns a warmed-up world for key: a pooled one rewound
// to its post-warmup capture when available, otherwise a freshly built
// one (registered in the pool on first build). The second result is the
// pool key to release when done — empty when the world is unpooled.
func checkoutWorld(key string, build func() (*cloud.Datacenter, any, error)) (*pooledWorld, string, error) {
	worldPoolMu.Lock()
	w, ok := worldPool[key]
	if ok && !w.inUse {
		w.inUse = true
		worldPoolMu.Unlock()
		w.dc.Restore(w.snap)
		snapshotRestores.Add(1)
		return w, key, nil
	}
	worldPoolMu.Unlock()

	dc, aux, err := build()
	if err != nil {
		return nil, "", err
	}
	w = &pooledWorld{dc: dc, aux: aux, inUse: true}

	worldPoolMu.Lock()
	defer worldPoolMu.Unlock()
	if _, exists := worldPool[key]; exists || len(worldPool) >= worldPoolCap {
		// The key is taken (a concurrent first build won) or the pool is
		// full: hand the world out unpooled.
		return w, "", nil
	}
	w.snap = dc.Snapshot()
	worldPool[key] = w
	return w, key, nil
}

// releaseWorld returns a pooled world to the pool. The caller must not
// touch the world afterwards; the next checkout rewinds it.
func releaseWorld(key string) {
	if key == "" {
		return
	}
	worldPoolMu.Lock()
	if w, ok := worldPool[key]; ok {
		w.inUse = false
	}
	worldPoolMu.Unlock()
}
