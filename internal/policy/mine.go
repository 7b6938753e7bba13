package policy

import (
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/workload"
)

// DefaultSeed is the canonical mining/verification world seed, the same
// instant the inspection experiments freeze at
// (experiments.DefaultInspectSeed).
const DefaultSeed int64 = 0x1ea4

// Options tunes mining and synthesis. The zero value selects the defaults.
type Options struct {
	// Containers is how many benign tenant containers the miner replays
	// the workload suite through (default 3). More containers widen the
	// observed surface — e.g. per-container veth names — without changing
	// the per-path outcomes for the shared pseudo-files.
	Containers int
	// Workers bounds the capture fan-out (default 1; <=0 is 1).
	Workers int
	// Chaos optionally injects the transient/dead-sensor fault layer the
	// capture retries must ride out.
	Chaos chaos.Spec
}

func (o Options) containers() int {
	if o.Containers <= 0 {
		return 3
	}
	return o.Containers
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return 1
	}
	return o.Workers
}

// MinedTrace is the merged benign read surface of one provider world: what
// a synthesized policy must keep readable.
type MinedTrace struct {
	Provider   string `json:"provider"`
	Seed       int64  `json:"seed"`
	Containers int    `json:"containers"`
	Workloads  int    `json:"workloads"`
	// Benign maps each pseudo-file path some benign workload successfully
	// read to the total successful read count across all containers and
	// workloads.
	Benign map[string]int `json:"benign"`
	// BaselineBroken lists paths the suite wanted but could never read
	// under the provider's own policy — pre-existing breakage a new policy
	// is not charged for (and not constrained by).
	BaselineBroken []string `json:"baseline_broken,omitempty"`
}

// Needs reports whether the benign surface depends on the path.
func (t MinedTrace) Needs(path string) bool { return t.Benign[path] > 0 }

// world is one single-server provider world: the probe container the
// detector cross-validates plus the benign tenants the miner replays
// workloads through. The shape matches experiments.NewInspectSession so a
// policy synthesized here closes exactly the channels leaksd reports.
type world struct {
	dc      *cloud.Datacenter
	srv     *cloud.Server
	probe   *container.Container
	tenants []*container.Container
}

// newWorld builds the provider world at the canonical 30-tick observation
// instant: one server, one probe, n benign tenants.
func newWorld(p cloud.ProviderProfile, spec chaos.Spec, seed int64, tenants int) (*world, error) {
	if seed == 0 {
		seed = DefaultSeed
	}
	dc := cloud.New(cloud.Config{
		Racks:          1,
		ServersPerRack: 1,
		Seed:           seed,
		Provider:       &p,
		Chaos:          spec,
	})
	srv, probe, err := dc.Launch("inspector", "probe", 1)
	if err != nil {
		return nil, fmt.Errorf("policy: launch probe: %w", err)
	}
	w := &world{dc: dc, srv: srv, probe: probe}
	for i := 0; i < tenants; i++ {
		_, c, err := dc.Launch("tenant", fmt.Sprintf("benign-%02d", i), 1)
		if err != nil {
			return nil, fmt.Errorf("policy: launch tenant %d: %w", i, err)
		}
		w.tenants = append(w.tenants, c)
	}
	dc.Clock.Run(30, 1)
	return w, nil
}

// advance drives the world forward by 1-second ticks (canary epochs).
func (w *world) advance(ticks int) {
	w.dc.Clock.Run(w.dc.Clock.Now()+float64(ticks), 1)
}

// mine replays the benign suite through every tenant container and merges
// the outcomes. A path lands in Benign if any container's capture read it
// successfully; a path every capture failed on is baseline breakage.
func (w *world) mine(provider string, seed int64, workers int) MinedTrace {
	specs := workload.BenignSuite(seed)
	t := MinedTrace{
		Provider:   provider,
		Seed:       seed,
		Containers: len(w.tenants),
		Workloads:  len(specs),
		Benign:     make(map[string]int),
	}
	failed := make(map[string]bool)
	for _, c := range w.tenants {
		for _, tr := range workload.CaptureAll(c.Mount(), specs, seed, workers) {
			for path, n := range tr.Reads {
				t.Benign[path] += n
			}
			for path := range tr.Failures {
				failed[path] = true
			}
		}
	}
	for path := range failed {
		if t.Benign[path] == 0 {
			t.BaselineBroken = append(t.BaselineBroken, path)
		}
	}
	sort.Strings(t.BaselineBroken)
	return t
}

// MineBenign builds the provider world and returns its merged benign read
// surface — the standalone entry point for inspecting what the synthesizer
// would constrain itself by.
func MineBenign(p cloud.ProviderProfile, seed int64, opts Options) (MinedTrace, error) {
	if seed == 0 {
		seed = DefaultSeed
	}
	w, err := newWorld(p, opts.Chaos, seed, opts.containers())
	if err != nil {
		return MinedTrace{}, err
	}
	return w.mine(p.Name, seed, opts.workers()), nil
}

// BenignPaths flattens the trace's benign surface to a sorted path list
// (the form stored on a synthesized Policy).
func (t MinedTrace) BenignPaths() []string {
	out := make([]string, 0, len(t.Benign))
	for path := range t.Benign {
		out = append(out, path)
	}
	sort.Strings(out)
	return out
}
