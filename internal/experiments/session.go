package experiments

import (
	"context"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pseudofs"
)

// This file is the experiment layer's hookup to the incremental detection
// engine (internal/engine). A session owns a persistent simulated world —
// the same one the corresponding one-shot entry point would build — plus
// an engine over its host mount, so repeated scans only re-render paths
// whose kernel subsystems moved. The one-shot entry points
// (InspectProviderSeeded, Discovery) are now thin wrappers that
// create a session and run its first pass: a first pass misses every cache
// by construction, so their output is byte-identical to the historical
// direct core.CrossValidate path.

// InspectSession is a persistent Table-I inspection world for one provider
// profile: a single-server cloud, one probe container, and an incremental
// engine over the host mount. The world is advanced to the canonical
// 30-tick observation instant at creation and stays frozen unless Advance
// is called, so every Inspect of an unadvanced session returns identical
// bytes — the later ones from cache.
type InspectSession struct {
	provider string
	cont     *pseudofs.Mount
	eng      *engine.Engine
	world    *pooledWorld
}

// NewInspectSession builds the world InspectProviderSeeded would build
// (seed 0 = DefaultInspectSeed) and wraps it in an incremental engine.
// The warmed-up world comes from a per-(provider, chaos, seed) pool: the
// first session for a key builds and captures it, later ones rewind the
// capture instead of re-running cloud.New and the warmup ticks. Call Close
// when done with the session so the world returns to the pool.
func NewInspectSession(p cloud.ProviderProfile, spec chaos.Spec, seed int64) (*InspectSession, error) {
	if seed == 0 {
		seed = DefaultInspectSeed
	}
	w, err := checkoutWorld(poolKey{kind: "inspect", provider: p.Name, chaos: spec, seed: seed},
		func() (*cloud.Datacenter, any, error) {
			dc := cloud.New(cloud.Config{
				Racks:          1,
				ServersPerRack: 1,
				Seed:           seed,
				Provider:       &p,
				Chaos:          spec,
			})
			srv, c, err := dc.Launch("inspector", "probe", 1)
			if err != nil {
				return nil, nil, err
			}
			// Let counters accumulate so dynamic channels carry real data.
			dc.Clock.Run(30, 1)
			return dc, sessionWorld{srv: srv, cont: c}, nil
		})
	if err != nil {
		return nil, err
	}
	sw := w.aux.(sessionWorld)
	// The engine is built per session, never pooled: a restore rewinds the
	// kernel's epoch clocks, so a cached engine's validity checks would be
	// confused by time appearing to run backwards.
	return &InspectSession{
		provider: p.Name,
		cont:     sw.cont.Mount(),
		eng:      engine.New(sw.srv.HostMount()),
		world:    w,
	}, nil
}

// sessionWorld is the aux payload a session world carries through the
// snapshot pool: the single server and the probe container.
type sessionWorld struct {
	srv  *cloud.Server
	cont *container.Container
}

// Close returns the session's world to the snapshot pool. The session must
// not be used afterwards. Closing is optional — an unreturned world is
// simply rebuilt by the next session for its key.
func (s *InspectSession) Close() { s.world.release() }

// Provider returns the profile name the session inspects.
func (s *InspectSession) Provider() string { return s.provider }

// Inspect cross-validates the probe container against the host and rolls
// the findings up into Table I channels. Repeated calls on an unadvanced
// world serve every path from the engine cache with zero re-renders;
// output is byte-identical to a cold scan in all cases.
func (s *InspectSession) Inspect() CloudInspection {
	return s.InspectChannels(core.TableIChannels(), 0)
}

// InspectChannels is Inspect against an arbitrary channel registry. The
// cross-validation pass (and therefore the engine cache) is channel-set
// independent — RollUp is pure post-processing over the findings — so one
// session can serve Table I and the runtime matrix without re-rendering.
//
// The workers argument is unused: one container's pass is validated
// serially, and parallelism comes from running sessions side by side. It
// stays because the benchmark module (perfbench/) passes it, and that
// module changes only together with the benchmark.
func (s *InspectSession) InspectChannels(channels []core.Channel, _ int) CloudInspection {
	findings := s.eng.Validate(s.cont)
	return CloudInspection{
		Provider: s.provider,
		Reports:  core.RollUp(channels, findings),
	}
}

// Advance drives the session's world forward by the given number of
// 1-second ticks. Dirty subsystems are re-rendered on the next Inspect.
func (s *InspectSession) Advance(ticks int) {
	clock := s.world.dc.Clock
	clock.Run(clock.Now()+float64(ticks), 1)
}

// EngineStats exposes the session engine's cache counters.
func (s *InspectSession) EngineStats() engine.Stats { return s.eng.Stats() }

// InspectProviderSeeded implements the right half of Fig. 1 for one
// provider: it stands up a single-server cloud with that provider's
// profile, launches a tenant container, lets the world run briefly, and
// cross-validates the container view against the host view. spec arms the
// provider's observation surface with deterministic fault injection (the
// detector's quorum reads absorb transient faults; the zero Spec injects
// nothing). Each seed builds a different simulated world (different boot
// ids, task mixes, counter baselines), so a scan campaign across seeds
// measures how stable a provider's leakage posture is across hosts; seed 0
// selects DefaultInspectSeed, the world behind `leakscan -table1`.
//
// It runs as the first pass of a fresh InspectSession: all cache misses,
// byte-identical to the direct serial cross-validation it replaces.
func InspectProviderSeeded(p cloud.ProviderProfile, spec chaos.Spec, seed int64) (CloudInspection, error) {
	s, err := NewInspectSession(p, spec, seed)
	if err != nil {
		return CloudInspection{}, err
	}
	defer s.Close()
	return s.Inspect(), nil
}

// DiscoverySession is the persistent testbed world behind discovery
// sweeps, with an incremental engine over the host mount.
type DiscoverySession struct {
	cont  *pseudofs.Mount
	eng   *engine.Engine
	world *pooledWorld
}

// NewDiscoverySession builds the world Discovery would build
// (seed 0 = DefaultDiscoverySeed) and wraps it in an incremental engine.
// Like NewInspectSession, the warmed-up world is pooled per (chaos, seed);
// call Close to return it.
func NewDiscoverySession(spec chaos.Spec, seed int64) *DiscoverySession {
	if seed == 0 {
		seed = DefaultDiscoverySeed
	}
	w, _ := checkoutWorld(poolKey{kind: "discover", chaos: spec, seed: seed},
		func() (*cloud.Datacenter, any, error) {
			dc := cloud.New(cloud.Config{Racks: 1, ServersPerRack: 1, Seed: seed, Chaos: spec})
			srv := dc.Racks[0].Servers[0]
			probe := srv.Runtime.Create("probe")
			dc.Clock.Run(30, 1)
			return dc, sessionWorld{srv: srv, cont: probe}, nil
		})
	sw := w.aux.(sessionWorld)
	return &DiscoverySession{
		cont:  sw.cont.Mount(),
		eng:   engine.New(sw.srv.HostMount()),
		world: w,
	}
}

// Close returns the session's world to the snapshot pool; the session must
// not be used afterwards.
func (s *DiscoverySession) Close() { s.world.release() }

// Discover runs the systematic sweep and reports leaking files outside the
// known-channel registry (the matrix set: Table I plus the frequency
// channel, so the cpufreq files do not flood the report as undocumented
// discoveries). Repeated calls on the frozen world are served from the
// engine cache, byte-identical to a cold sweep.
func (s *DiscoverySession) Discover() *DiscoveryResult {
	findings := s.eng.Validate(s.cont)
	res := &DiscoveryResult{
		Findings: core.Discover(core.MatrixChannels(), findings),
	}
	for _, f := range findings {
		if f.Status == core.Identical || f.Status == core.Partial {
			res.TotalLeaking++
		}
	}
	return res
}

// EngineStats exposes the session engine's cache counters.
func (s *DiscoverySession) EngineStats() engine.Stats { return s.eng.Stats() }

// FleetScanResult is the outcome of a batched multi-container validation:
// one host, many tenant containers, validated in a single engine fleet
// pass that renders each host-side file once and shares it across every
// container instead of re-reading per (host, container) pair.
type FleetScanResult struct {
	Containers int
	// LeakingPerContainer counts Identical/Partial findings per container,
	// in launch order (identical masking policies make these equal in the
	// common case — the point is the shared host reads, not the spread).
	LeakingPerContainer []int
	// Stats is the engine's counter snapshot after the pass; HostHits is
	// the number of host renders saved by sharing.
	Stats engine.Stats
}

// FleetScan launches n tenant containers on a single testbed server
// (seed 0 = DefaultInspectSeed) and cross-validates all of them in one
// batched engine pass. With n containers and P host paths, the naive loop
// performs up to n×P host reads; the fleet pass performs at most P host
// renders and n×P−P shared hits, with the containers fanned out over
// workers. Honours ctx before building the world.
func FleetScan(ctx context.Context, spec chaos.Spec, seed int64, n, workers int) (*FleetScanResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("experiments: fleet scan needs at least 1 container, got %d", n)
	}
	if seed == 0 {
		seed = DefaultInspectSeed
	}
	dc := cloud.New(cloud.Config{Racks: 1, ServersPerRack: 1, Seed: seed, Chaos: spec})
	srv := dc.Racks[0].Servers[0]
	mounts := make([]*pseudofs.Mount, 0, n)
	for i := 0; i < n; i++ {
		c := srv.Runtime.Create(fmt.Sprintf("tenant-%02d", i))
		mounts = append(mounts, c.Mount())
	}
	dc.Clock.Run(30, 1)

	eng := engine.New(srv.HostMount())
	all := eng.FleetValidate(mounts, workers)
	res := &FleetScanResult{
		Containers:          n,
		LeakingPerContainer: make([]int, n),
		Stats:               eng.Stats(),
	}
	for i, findings := range all {
		for _, f := range findings {
			if f.Status == core.Identical || f.Status == core.Partial {
				res.LeakingPerContainer[i]++
			}
		}
	}
	return res, nil
}

// String renders the fleet scan summary.
func (r *FleetScanResult) String() string {
	return fmt.Sprintf(
		"FLEET SCAN: %d containers validated in one batched pass\n"+
			"  leaking files per container: %v\n"+
			"  host renders: %d (shared hits: %d, finding misses: %d)\n",
		r.Containers, r.LeakingPerContainer,
		r.Stats.HostRenders, r.Stats.HostHits, r.Stats.FindingMisses)
}
