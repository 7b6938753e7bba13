package pseudofs

import "repro/internal/snapshot"

// FSState is a point-in-time capture of an FS for the world snapshot
// machinery: a copy of its state struct (swapped handlers, providers, the
// injector and the engine's generation counters) plus the render counter,
// so a restored FS is indistinguishable from a fresh one, including to the
// incremental engine's epoch checks.
type FSState struct {
	s       fsState
	renders uint64
}

// Snapshot captures the FS's mutable state.
func (fs *FS) Snapshot() *FSState {
	s := &FSState{s: fs.fsState, renders: fs.renders.Load()}
	s.s.override = snapshot.Refill(nil, s.s.override)
	s.s.replaceGen = snapshot.Refill(nil, s.s.replaceGen)
	return s
}

// Restore rewinds the FS to the captured state.
func (fs *FS) Restore(s *FSState) {
	st := s.s
	st.override = snapshot.Refill(fs.override, st.override)
	st.replaceGen = snapshot.Refill(fs.replaceGen, st.replaceGen)
	fs.fsState = st
	fs.renders.Store(s.renders)
}
