package cloud

import (
	"maps"

	"repro/internal/chaos"
	"repro/internal/container"
	"repro/internal/kernel"
	"repro/internal/powerns"
	"repro/internal/pseudofs"
	"repro/internal/simclock"
	"repro/internal/snapshot"
)

// WorldState is a capture of an entire datacenter: copies of the state
// structs of the datacenter, its billing, flash driver, breakers and
// servers, plus each server's kernel, FS, runtime, power namespace and
// chaos snapshots. Restore rewinds the world in place — Datacenter,
// Server, Rack and Container objects keep their identity, and anything
// created after the capture is dropped — so precisely that every later
// tick and read is byte-identical to a fresh datacenter driven to the same
// point, which lets the seed sweeps replace rebuilds with restores.
// Incremental engines over a server's mounts must be discarded after a
// Restore: the epoch clocks rewind with the kernel.
type WorldState struct {
	clock   *simclock.ClockState
	dc      datacenterState
	billing billingState
	meters  snapshot.Table[string, meter]
	flash   flashState
	racks   []breakerState
	servers []serverSnap
}

type serverSnap struct {
	s       serverState
	benign  benignState
	kernel  *kernel.Snapshot
	fs      *pseudofs.FSState
	runtime *container.RuntimeState
	powerNS *powerns.NamespaceState
	chaos   *chaos.State
}

// Snapshot captures the datacenter's complete state. The world must be
// quiescent (no Clock.Run in flight).
func (dc *Datacenter) Snapshot() *WorldState {
	s := &WorldState{
		clock:   dc.Clock.Snapshot(),
		dc:      dc.datacenterState,
		billing: dc.billing.billingState,
		meters:  snapshot.Capture(dc.billing.meters, nil),
	}
	s.billing.meters = nil // captured whole in s.meters
	if dc.flash != nil {
		s.flash = dc.flash.flashState
	}
	for _, rack := range dc.Racks {
		s.racks = append(s.racks, rack.Breaker.breakerState)
	}
	for _, srv := range dc.Servers() {
		snap := serverSnap{
			s:       srv.serverState,
			benign:  srv.Benign.benignState,
			kernel:  srv.Kernel.Snapshot(),
			fs:      srv.FS.Snapshot(),
			runtime: srv.Runtime.Snapshot(),
			chaos:   chaos.Snapshot(srv.FS),
		}
		snap.s.reservations = maps.Clone(snap.s.reservations)
		if srv.PowerNS != nil {
			snap.powerNS = srv.PowerNS.Snapshot()
		}
		s.servers = append(s.servers, snap)
	}
	return s
}

// Restore rewinds the datacenter to the captured state.
func (dc *Datacenter) Restore(s *WorldState) {
	dc.Clock.Restore(s.clock)
	dc.datacenterState = s.dc
	billing := s.billing
	billing.meters = s.meters.Restore(dc.billing.meters, nil)
	dc.billing.billingState = billing
	if dc.flash != nil {
		dc.flash.flashState = s.flash
	}

	for r, rack := range dc.Racks {
		rack.Breaker.breakerState = s.racks[r]
	}
	for i, srv := range dc.Servers() {
		snap := &s.servers[i]
		// FS first: it reinstates the wrappers whose fault streams
		// chaos.Restore rewinds.
		srv.FS.Restore(snap.fs)
		srv.Kernel.Restore(snap.kernel)
		srv.Runtime.Restore(snap.runtime)
		if snap.powerNS != nil {
			srv.PowerNS.Restore(snap.powerNS)
		}
		srv.Benign.benignState = snap.benign
		clear(srv.reservations)
		maps.Copy(srv.reservations, snap.s.reservations)
		st := snap.s
		st.reservations = srv.reservations
		srv.serverState = st
		chaos.Restore(srv.FS, snap.chaos)
	}
}
