package powerns

import "repro/internal/snapshot"

// NamespaceState is a point-in-time capture of a Namespace for the world
// snapshot machinery: its state struct plus every container account.
// rawSource is structural (installed at world build) and is not captured.
type NamespaceState struct {
	s          namespaceState
	containers snapshot.Table[string, acct]
}

// Snapshot captures the namespace's mutable state.
func (ns *Namespace) Snapshot() *NamespaceState {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	s := &NamespaceState{s: ns.namespaceState, containers: snapshot.Capture(ns.containers, nil)}
	s.s.containers = nil // captured whole in s.containers
	return s
}

// Restore rewinds the namespace to the captured state. Containers
// registered after the capture are dropped, exactly as a fresh world would
// not know them.
func (ns *Namespace) Restore(s *NamespaceState) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	st := s.s
	st.containers = s.containers.Restore(ns.containers, nil)
	ns.namespaceState = st
}
