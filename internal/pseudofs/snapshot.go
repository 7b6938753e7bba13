package pseudofs

import "slices"

// FSState is a point-in-time capture of an FS's mutable surface for the
// world snapshot machinery. The file *set* is the shared, immutable
// layout, but handlers can be swapped (Replace), providers and injectors
// installed, and the render/generation counters advance; all of that must
// rewind so a restored world is indistinguishable from a freshly built
// one, including to the incremental engine's epoch checks.
type FSState struct {
	override        []Handler
	energy          EnergyProvider
	thermal         ThermalProvider
	injector        Injector
	fsGen           uint64
	replaceGen      []uint64
	totalReplaceGen uint64
	renders         uint64
}

// Snapshot captures the FS's mutable state.
func (fs *FS) Snapshot() *FSState {
	return &FSState{
		override:        slices.Clone(fs.override),
		energy:          fs.energy,
		thermal:         fs.thermal,
		injector:        fs.injector,
		fsGen:           fs.fsGen,
		replaceGen:      slices.Clone(fs.replaceGen),
		totalReplaceGen: fs.totalReplaceGen,
		renders:         fs.renders.Load(),
	}
}

// Restore rewinds the FS to the captured state.
func (fs *FS) Restore(s *FSState) {
	fs.override = slices.Clone(s.override)
	fs.energy = s.energy
	fs.thermal = s.thermal
	fs.injector = s.injector
	fs.fsGen = s.fsGen
	fs.replaceGen = slices.Clone(s.replaceGen)
	fs.totalReplaceGen = s.totalReplaceGen
	fs.renders.Store(s.renders)
}
