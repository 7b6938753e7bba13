package cluster

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pseudofs"
	"repro/internal/worlds"
)

// DefaultTick is the canonical observation instant: 30 simulated seconds,
// the same warm-up every inspection entry point uses so dynamic channels
// carry real data.
const DefaultTick = 30

// DefaultSeed seeds fleet worlds when the spec leaves it zero.
const DefaultSeed int64 = 0x1ea4

// Spec describes one fleet scan: the deterministic world to build and the
// instant to scan it at. A Spec is the *entire* world description — no
// state ever crosses the wire beyond it, because every worker can
// reconstruct the identical world from (Provider, Seed, Containers) and
// advance it to Tick. Observation-surface chaos is deliberately absent:
// per-read fault streams are order-sensitive, so a partitioned scan under
// them would not be byte-identical to a single-node scan (the engine
// bypasses its caches under injection for the same reason). Cluster chaos
// lives on the links instead — see WithChaos.
type Spec struct {
	// Provider selects the masking/hardware profile ("" = "local", the
	// unhardened testbed; "lxc"-style and cc1…cc5 as in Table I).
	Provider string `json:"provider,omitempty"`
	// Seed builds the world (0 = DefaultSeed).
	Seed int64 `json:"seed,omitempty"`
	// Containers is the fleet size: tenant containers launched on the
	// world's single server, named tenant-00000 … tenant-NNNNN.
	Containers int `json:"containers"`
	// Tick is the observation instant in simulated seconds (0 = DefaultTick).
	// Recurring scans advance it monotonically; workers apply the delta to
	// their cached replica instead of rebuilding.
	Tick float64 `json:"tick,omitempty"`
}

// Normalize canonicalizes a spec so equal worlds compare equal.
func (s Spec) Normalize() Spec {
	if s.Provider == "" {
		s.Provider = cloud.LocalName
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Tick <= 0 {
		s.Tick = DefaultTick
	}
	return s
}

// Validate rejects malformed specs with client-facing errors.
func (s Spec) Validate() error {
	n := s.Normalize()
	if !cloud.IsProvider(n.Provider) {
		return fmt.Errorf("unknown provider %q", n.Provider)
	}
	if n.Containers <= 0 {
		return fmt.Errorf("fleet needs at least 1 container, got %d", n.Containers)
	}
	return nil
}

// worldKey identifies a world replica: the normalized spec without its
// tick (replicas advance in place).
func (s Spec) worldKey() Spec {
	n := s.Normalize()
	n.Tick = 0
	return n
}

// ContainerName returns the deterministic name of fleet container i >= 0,
// "tenant-" and i zero-padded to five digits — the identity both the world
// builder and the partitioner hash, so the ring key of a container never
// depends on having the world in memory.
func ContainerName(i int) string {
	const padded = "tenant-00000"
	var b [20]byte
	digits := strconv.AppendInt(b[:0], int64(i), 10)
	return padded[:max(len("tenant-"), len(padded)-len(digits))] + string(digits)
}

// FleetWorld is one deterministic fleet replica: a single-server
// datacenter, Containers tenant containers, and an incremental engine over
// the host mount. Advancing and scanning are synchronized so a pass never
// observes a moving clock (the engine's determinism contract).
type FleetWorld struct {
	spec Spec // normalized

	mu     sync.RWMutex
	dc     *cloud.Datacenter
	srv    *cloud.Server
	mounts []*pseudofs.Mount
	eng    *engine.Engine
	tick   float64
}

// BuildFleetWorld constructs the replica the spec describes, advanced to
// spec.Tick. Identical specs build byte-identical worlds on every node.
func BuildFleetWorld(spec Spec) (*FleetWorld, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	prof, _ := cloud.ProviderByName(spec.Provider)
	dc := cloud.New(cloud.Config{Racks: 1, ServersPerRack: 1, Seed: spec.Seed, Provider: &prof})
	srv := dc.Racks[0].Servers[0]
	mounts := make([]*pseudofs.Mount, spec.Containers)
	for i := range mounts {
		c := srv.Runtime.Create(ContainerName(i), prof.ExtraRules...)
		mounts[i] = c.Mount()
	}
	dc.Clock.Run(spec.Tick, 1)
	return &FleetWorld{
		spec:   spec,
		dc:     dc,
		srv:    srv,
		mounts: mounts,
		eng:    engine.New(srv.HostMount()),
		tick:   spec.Tick,
	}, nil
}

// Spec returns the normalized spec the world was built from.
func (w *FleetWorld) Spec() Spec { return w.spec }

// Tick returns the replica's current observation instant.
func (w *FleetWorld) Tick() float64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.tick
}

// Stats exposes the replica engine's cache counters.
func (w *FleetWorld) Stats() engine.Stats { return w.eng.Stats() }

// Renders returns the replica's cumulative pseudo-file render count
// (pseudofs.FS.Renders).
func (w *FleetWorld) Renders() uint64 { return w.srv.FS.Renders() }

// Pass validates the selected containers (fleet indices) at the given
// tick, advancing the replica by the delta first when it is behind.
// Results are per selected container, in request order, each in path
// order — byte-identical to the same containers' slices of a single-node
// engine.FleetValidate over the whole fleet, because per-path validations
// are mutually independent and deterministic on the frozen world. The
// returned generation is the kernel's total subsystem bump count, the
// cross-replica convergence check: two replicas of one spec at one tick
// always report the same generation.
//
// Concurrent passes at the same tick share the read lock (and the engine's
// caches); a pass that must advance takes the write lock, so validation
// never overlaps a moving clock. A request behind the replica's tick is an
// error — deterministic worlds only move forward, and the coordinator
// never rewinds a scan.
func (w *FleetWorld) Pass(tick float64, containers []int, workers int) ([][]core.Finding, uint64, error) {
	if tick <= 0 {
		tick = w.spec.Tick
	}
	w.mu.RLock()
	for w.tick != tick {
		w.mu.RUnlock()
		if err := w.advance(tick); err != nil {
			return nil, 0, err
		}
		w.mu.RLock()
	}
	defer w.mu.RUnlock()

	sel := make([]*pseudofs.Mount, len(containers))
	for i, ci := range containers {
		if ci < 0 || ci >= len(w.mounts) {
			return nil, 0, fmt.Errorf("cluster: container index %d outside fleet of %d", ci, len(w.mounts))
		}
		sel[i] = w.mounts[ci]
	}
	findings := w.eng.FleetValidate(sel, workers)
	return findings, w.srv.Kernel.Generation(), nil
}

// advance moves the replica clock forward to tick under the write lock.
func (w *FleetWorld) advance(tick float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if tick < w.tick {
		return fmt.Errorf("cluster: replica at tick %g cannot rewind to %g", w.tick, tick)
	}
	if tick > w.tick {
		w.dc.Clock.Run(tick, 1)
		w.tick = tick
	}
	return nil
}

// Worlds resolves specs to fleet replicas. LocalWorlds builds and caches
// per-node replicas (the worker-daemon mode); SharedWorlds points every
// in-process worker at one world (the benchmark/scaling mode, where
// duplicating a 100k-container world per worker would swamp the
// measurement).
type Worlds interface {
	Fleet(spec Spec) (*FleetWorld, error)
}

// LocalWorlds caches replicas per spec identity, keeping at most cap of
// them (least-recently-used beyond; default 4 — fleet worlds are heavy).
type LocalWorlds struct {
	c *worlds.Cache[Spec, *FleetWorld]
}

// NewLocalWorlds returns a replica cache (cap <= 0 selects 4).
func NewLocalWorlds(cap int) *LocalWorlds {
	if cap <= 0 {
		cap = 4
	}
	return &LocalWorlds{c: worlds.New[Spec, *FleetWorld](cap)}
}

// Fleet resolves (building at most once per spec identity, concurrently
// safe) and advances happen inside Pass.
func (l *LocalWorlds) Fleet(spec Spec) (*FleetWorld, error) {
	return l.c.Get(spec.worldKey(), func() (*FleetWorld, error) { return BuildFleetWorld(spec) })
}

// Len reports the number of cached replicas.
func (l *LocalWorlds) Len() int { return l.c.Len() }

// SharedWorlds serves one pre-built world to every caller whose spec
// matches it, and rejects everything else — the in-process topology where
// N workers partition one host's fleet.
type SharedWorlds struct {
	w *FleetWorld
}

// NewSharedWorlds wraps an already-built world.
func NewSharedWorlds(w *FleetWorld) *SharedWorlds { return &SharedWorlds{w: w} }

// Fleet implements Worlds.
func (s *SharedWorlds) Fleet(spec Spec) (*FleetWorld, error) {
	if spec.Normalize().worldKey() != s.w.spec.worldKey() {
		return nil, fmt.Errorf("cluster: shared world is %+v, request is %+v",
			s.w.spec.worldKey(), spec.Normalize().worldKey())
	}
	return s.w, nil
}

// SingleNode is the uninterrupted single-node reference scan: one world,
// one engine.FleetValidate over the whole fleet. The differential suite
// pins every cluster topology against its output, and a standalone leaksd
// can serve fleet scans through it directly.
func SingleNode(spec Spec, workers int) ([][]core.Finding, uint64, error) {
	w, err := BuildFleetWorld(spec)
	if err != nil {
		return nil, 0, err
	}
	findings, gen, err := w.Pass(w.spec.Tick, allContainers(w.spec.Containers), workers)
	return findings, gen, err
}

// allContainers returns [0, n) — the identity selection.
func allContainers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
