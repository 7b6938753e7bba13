package perfcount

import "repro/internal/snapshot"

// MonitorState is a point-in-time capture of a Monitor for the world
// snapshot machinery. Groups created after the capture are dropped on
// Restore; groups that were removed in between come back with their exact
// accumulated counters (CreateGroup alone would zero them).
type MonitorState struct {
	s      monitorState
	groups snapshot.Table[string, group]
}

// Snapshot captures the monitor's mutable state.
func (m *Monitor) Snapshot() *MonitorState {
	s := &MonitorState{s: m.monitorState, groups: snapshot.Capture(m.groups, nil)}
	s.s.groups = nil // captured whole in s.groups
	return s
}

// Restore rewinds the monitor to the captured state.
func (m *Monitor) Restore(s *MonitorState) {
	st := s.s
	st.groups = s.groups.Restore(m.groups, nil)
	m.monitorState = st
}
