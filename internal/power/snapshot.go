package power

import "repro/internal/snapshot"

// MeterState is a point-in-time capture of a Meter for the world snapshot
// machinery: a copy of its state struct. The config is immutable after
// New, so Restore must go to the meter the capture came from.
type MeterState struct{ s meterState }

// Snapshot captures the meter's mutable state.
func (m *Meter) Snapshot() MeterState {
	s := m.meterState
	s.tempC = snapshot.Refill(nil, s.tempC)
	return MeterState{s}
}

// Restore rewinds the meter to the captured state, refilling its per-core
// slice in place.
func (m *Meter) Restore(c MeterState) {
	c.s.tempC = snapshot.Refill(m.tempC, c.s.tempC)
	m.meterState = c.s
}

// GovernorState is a point-in-time capture of a Governor, as MeterState
// is of a Meter.
type GovernorState struct{ s governorState }

// Snapshot captures the governor's mutable state.
func (g *Governor) Snapshot() GovernorState {
	c := GovernorState{g.governorState}
	c.s.own(&governorState{})
	return c
}

// Restore rewinds the governor to the captured state, refilling its
// per-core slices in place.
func (g *Governor) Restore(c GovernorState) {
	c.s.own(&g.governorState)
	g.governorState = c.s
}

// own points s's slices at into's (refilled in place) or, into zero, fresh ones.
func (s *governorState) own(into *governorState) {
	s.cur = snapshot.Refill(into.cur, s.cur)
	s.kHz = snapshot.Refill(into.kHz, s.kHz)
	s.trans = snapshot.Refill(into.trans, s.trans)
}
