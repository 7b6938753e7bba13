package container

import (
	"slices"

	"repro/internal/snapshot"
)

// RuntimeState is a point-in-time capture of a Runtime for the world
// snapshot machinery: a copy of its state struct plus its container table.
// Restore puts every captured container's value (mount, task list) back
// on the same Container pointer, so callers' handles stay valid, and drops
// containers created after the capture; the kernel's own Restore rewinds
// their tasks, cgroups, namespaces and veth devices.
type RuntimeState struct {
	s          runtimeState
	containers snapshot.Table[string, Container]
}

// Snapshot captures the runtime's mutable state.
func (r *Runtime) Snapshot() *RuntimeState {
	s := &RuntimeState{s: r.runtimeState, containers: snapshot.Capture(r.containers, cloneContainer)}
	s.s.containers = nil // captured whole in s.containers
	return s
}

// Restore rewinds the runtime to the captured state.
func (r *Runtime) Restore(s *RuntimeState) {
	st := s.s
	st.containers = s.containers.Restore(r.containers, cloneContainer)
	r.runtimeState = st
}

// cloneContainer gives a container value its own task list: Stop filters
// it in place.
func cloneContainer(c *Container) { c.tasks = slices.Clone(c.tasks) }
