package simclock

import "repro/internal/snapshot"

// ClockState is a point-in-time capture of a Clock for the world snapshot
// machinery: a copy of its state struct. Events are immutable once pushed
// (Pop only drops references), so the capture shares them with the live
// queue; the queue slice itself, a valid heap, is copied.
type ClockState struct{ s clockState }

// Snapshot captures the clock's mutable state.
func (c *Clock) Snapshot() *ClockState {
	s := c.clockState
	s.events = snapshot.Refill(nil, s.events)
	return &ClockState{s}
}

// Restore rewinds the clock to the captured state.
func (c *Clock) Restore(s *ClockState) {
	st := s.s
	st.events = snapshot.Refill(c.events, st.events)
	c.clockState = st
}
