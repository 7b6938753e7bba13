package chaos

import (
	"sync"

	"repro/internal/pseudofs"
	"repro/internal/snapshot"
)

// State is a capture of the chaos layer Install armed on one FS: the
// table of fault streams of each wrapper, each stream a plain value (RNG
// position plus latched state), so a restored world replays the faults a
// fresh one would see. Streams born after the capture are dropped; they
// are recreated with identical seeds on first use, since every seed comes
// from Split(seed, kind, name) alone.
type State struct {
	paths snapshot.Table[string, pathState]
	keys  snapshot.Table[string, counterState]
	cores snapshot.Table[int, dtsState]
}

// Snapshot captures the stream tables of the chaos wrappers armed on fs.
func Snapshot(fs *pseudofs.FS) *State {
	s := &State{}
	if in, ok := fs.Injector().(*Injector); ok {
		s.paths = capture(&in.mu, in.paths)
	}
	if e, ok := fs.EnergyProvider().(*Energy); ok {
		s.keys = capture(&e.ctr.mu, e.ctr.keys)
	}
	if t, ok := fs.ThermalProvider().(*Thermal); ok {
		s.cores = capture(&t.mu, t.cores)
	}
	return s
}

// Restore rewinds the chaos wrappers armed on fs to the capture. fs must
// be restored first, so that it holds the wrappers it held at the capture.
func Restore(fs *pseudofs.FS, s *State) {
	if in, ok := fs.Injector().(*Injector); ok {
		restore(&in.mu, &in.paths, s.paths)
	}
	if e, ok := fs.EnergyProvider().(*Energy); ok {
		restore(&e.ctr.mu, &e.ctr.keys, s.keys)
	}
	if t, ok := fs.ThermalProvider().(*Thermal); ok {
		restore(&t.mu, &t.cores, s.cores)
	}
}

func capture[K comparable, V any](mu *sync.Mutex, live map[K]*V) snapshot.Table[K, V] {
	mu.Lock()
	defer mu.Unlock()
	return snapshot.Capture(live, nil)
}

func restore[K comparable, V any](mu *sync.Mutex, live *map[K]*V, t snapshot.Table[K, V]) {
	mu.Lock()
	defer mu.Unlock()
	*live = t.Restore(*live, nil)
}
