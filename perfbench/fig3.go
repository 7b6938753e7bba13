package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"syscall"
	"time"

	"repro/internal/attack"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/experiments"
	"repro/internal/simclock"
)

// sim-fig3: one operation is one seed's Fig. 3 trio — restore, 3000 s
// synergistic campaign, restore, 3000 s periodic campaign, restore, 3000 s
// background — on the 8-server rack of 24-core servers. The seed worlds
// are built and captured during set-up. Nearly all host time is the tick
// pipeline; the engine, service and cluster layers are not on the path.

const (
	fig3Worlds   = 4    // seed worlds built during set-up
	fig3Horizon  = 3000 // simulated seconds per campaign
	fig3RefSeed  = 1362 // the seed experiments.Fig3 renders
	fig3OpsPer10 = 27   // operations in a 10-second run
)

// fig3Paths are files the attack package reads from inside its
// containers: the RAPL counter (monitor.go), /proc/stat (utilmonitor.go)
// and boot_id (strategies.go). After each trio every attacker container
// reads each of them once. None of them draws randomness when rendered,
// so reading never changes the simulated world.
var fig3Paths = []string{
	"/sys/class/powercap/intel-rapl:0/energy_uj",
	"/proc/stat",
	"/proc/sys/kernel/random/boot_id",
}

type fig3World struct {
	seed  int64
	dc    *cloud.Datacenter
	rack  *cloud.Rack
	cs    []*container.Container
	snap  *cloud.WorldState
	probe *tickProbe
}

// fig3Counts are the exact per-trio counts: pseudo-file renders and DVFS
// governor transitions over the three campaigns.
type fig3Counts struct{ renders, transitions uint64 }

type fig3Op struct {
	world  int
	res    *experiments.Fig3Result
	counts fig3Counts
	readOK bool
}

type fig3Bench struct {
	o      options
	seeds  []int64
	worlds []*fig3World
	order  *stream
	opsRun []fig3Op
	readMs []float64

	buildMs, snapMs []float64 // per world, from this process's set-up
	// traced-op accumulators of the tick probes
	tickTraced probeTotals
	cpuPerWall []float64
}

func newFig3(o options) workload {
	seeds := make([]int64, fig3Worlds)
	s := newStream(o.seed, "fig3/seeds")
	for i := range seeds {
		// Distinct positive world seeds away from the reference seed.
		seeds[i] = 10_000 + int64(s.intn(1_000_000))*fig3Worlds + int64(i)
	}
	return &fig3Bench{o: o, seeds: seeds, order: newStream(o.seed, "fig3/order")}
}

func (b *fig3Bench) ops(seconds int) int { return max(20, fig3OpsPer10*seconds/10) }

// buildFig3 is the build of experiments.Fig3 for one seed: the evening
// ramp warm-up and the attacker spread over the rack.
func buildFig3(seed int64) (*cloud.Datacenter, *cloud.Rack, []*container.Container, error) {
	dc := cloud.New(cloud.Config{
		Racks: 1, ServersPerRack: 8, CoresPerServer: 24, Seed: seed,
		BreakerRatedW: 1e9,
		Benign:        cloud.BenignConfig{FlashCrowdPerDay: 48, FlashMinS: 60, FlashMaxS: 240, SharedFlash: true},
	})
	dc.Clock.Run(16*3600, 30)
	agg, err := attack.SpreadAcrossRack(dc, "mallory", 6, 4, 3600, 600)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spread attackers (seed %d): %w", seed, err)
	}
	return dc, agg.Kept[0].Server.Rack, agg.Containers(), nil
}

func (b *fig3Bench) setup() error {
	for _, seed := range b.seeds {
		t0 := time.Now()
		dc, rack, cs, err := buildFig3(seed)
		if err != nil {
			return err
		}
		t1 := time.Now()
		snap := dc.Snapshot()
		b.buildMs = append(b.buildMs, ms(t1.Sub(t0)))
		b.snapMs = append(b.snapMs, ms(time.Since(t1)))
		w := &fig3World{seed: seed, dc: dc, rack: rack, cs: cs, snap: snap}
		if b.o.trace {
			w.probe = installProbe(dc)
		}
		b.worlds = append(b.worlds, w)
	}
	return nil
}

// synCfg is Fig. 3's synergistic trigger configuration.
func synCfg() attack.Config {
	cfg := attack.DefaultConfig()
	cfg.TriggerNearMax = 0.95
	cfg.WarmupSeconds = 600
	cfg.CooldownSeconds = 240
	return cfg
}

// campaigns are the three runs of a trio, in order.
type campaign struct {
	name string
	run  func(dc *cloud.Datacenter, rack *cloud.Rack, cs []*container.Container, r *experiments.Fig3Result, p *tickProbe) error
}

var trio = []campaign{
	{"attack.synergistic", func(dc *cloud.Datacenter, rack *cloud.Rack, cs []*container.Container, r *experiments.Fig3Result, _ *tickProbe) error {
		var err error
		r.Synergistic, err = attack.RunSynergistic(dc, rack, cs, synCfg(), fig3Horizon)
		return err
	}},
	{"attack.periodic", func(dc *cloud.Datacenter, rack *cloud.Rack, cs []*container.Container, r *experiments.Fig3Result, _ *tickProbe) error {
		r.Periodic = attack.RunPeriodic(dc, rack, cs, attack.DefaultConfig(), fig3Horizon, 300)
		return nil
	}},
	{"attack.background", func(dc *cloud.Datacenter, rack *cloud.Rack, _ []*container.Container, r *experiments.Fig3Result, p *tickProbe) error {
		var peak float64
		for t := 0; t < fig3Horizon; t++ {
			if p != nil {
				p.markStart()
			}
			dc.Clock.Advance(1)
			if w := rack.Power(); w > peak {
				peak = w
			}
		}
		r.BackgroundPeakW = peak
		return nil
	}},
}

func worldCounts(dc *cloud.Datacenter) fig3Counts {
	var c fig3Counts
	for _, s := range dc.Servers() {
		c.renders += s.FS.Renders()
		c.transitions += s.Kernel.Freq().TotalTransitions()
	}
	return c
}

func (b *fig3Bench) op(i int, t *tracer) (time.Duration, error) {
	idx := b.order.intn(len(b.worlds))
	w := b.worlds[idx]
	rec := fig3Op{world: idx, res: &experiments.Fig3Result{}}
	root := -1
	start := time.Now()
	if t != nil {
		root = t.begin(rootSpan, i, -1)
	}
	for _, c := range trio {
		if t != nil {
			s := t.begin("cloud.restore", i, root)
			w.dc.Restore(w.snap)
			t.end(s)
		} else {
			w.dc.Restore(w.snap)
		}
		before := worldCounts(w.dc)
		var err error
		if t != nil {
			w.probe.arm()
			var cpu0 time.Duration
			if c.name == "attack.background" {
				cpu0 = cpuTime()
			}
			s := t.begin(c.name, i, root)
			err = c.run(w.dc, w.rack, w.cs, rec.res, w.probe)
			t.end(s)
			if c.name == "attack.background" {
				b.cpuPerWall = append(b.cpuPerWall, float64(cpuTime()-cpu0)/float64(t.spans[s].Dur))
			}
			tot := w.probe.disarm()
			t.add("simclock", s, tot.pipeline)
			b.tickTraced.addTotals(tot)
		} else {
			err = c.run(w.dc, w.rack, w.cs, rec.res, nil)
		}
		if err != nil {
			return 0, fmt.Errorf("%s (seed %d): %w", c.name, w.seed, err)
		}
		after := worldCounts(w.dc)
		rec.counts.renders += after.renders - before.renders
		rec.counts.transitions += after.transitions - before.transitions
	}
	if t != nil {
		t.end(root)
	}
	lat := time.Since(start)

	// The attackers' channel reads on the world the trio left behind.
	rec.readOK = true
	for _, c := range w.cs {
		for _, path := range fig3Paths {
			r0 := time.Now()
			out, err := c.ReadFile(path)
			b.readMs = append(b.readMs, ms(time.Since(r0)))
			if err != nil || out == "" {
				rec.readOK = false
			}
		}
	}
	b.opsRun = append(b.opsRun, rec)
	return lat, nil
}

func (b *fig3Bench) reads() []float64 { return b.readMs }

// fig3Digest is an exact fingerprint of a trio: its rendering plus every
// number of both campaigns in full precision.
func fig3Digest(r *experiments.Fig3Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%#v|%#v|%#v", r.String(), r.Synergistic, r.Periodic, r.BackgroundPeakW)
	return hex.EncodeToString(h.Sum(nil))
}

// freshTrio runs the trio on three freshly built worlds, the way
// experiments.Fig3 runs it with snapshots disabled.
func freshTrio(seed int64) (*experiments.Fig3Result, fig3Counts, error) {
	r := &experiments.Fig3Result{}
	var c fig3Counts
	for _, camp := range trio {
		dc, rack, cs, err := buildFig3(seed)
		if err != nil {
			return nil, c, err
		}
		before := worldCounts(dc)
		if err := camp.run(dc, rack, cs, r, nil); err != nil {
			return nil, c, err
		}
		after := worldCounts(dc)
		c.renders += after.renders - before.renders
		c.transitions += after.transitions - before.transitions
	}
	return r, c, nil
}

// restoredTrio runs the trio the way op does, on a world built and
// captured once.
func restoredTrio(seed int64) (*experiments.Fig3Result, error) {
	dc, rack, cs, err := buildFig3(seed)
	if err != nil {
		return nil, err
	}
	snap := dc.Snapshot()
	r := &experiments.Fig3Result{}
	for _, camp := range trio {
		dc.Restore(snap)
		if err := camp.run(dc, rack, cs, r, nil); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (b *fig3Bench) check(n int) ([]bool, []string) {
	var problems []string
	// The composition must be experiments.Fig3 at its reference seed.
	composed, err := restoredTrio(fig3RefSeed)
	want, err2 := experiments.Fig3()
	compositionOK := err == nil && err2 == nil && composed.String() == want.String()
	if !compositionOK {
		problems = append(problems, fmt.Sprintf("composed trio at seed %d differs from experiments.Fig3 (%v, %v)", fig3RefSeed, err, err2))
	}
	refDigest := make([]string, len(b.worlds))
	refCounts := make([]fig3Counts, len(b.worlds))
	for j, w := range b.worlds {
		r, c, err := freshTrio(w.seed)
		if err != nil {
			problems = append(problems, fmt.Sprintf("fresh trio seed %d: %v", w.seed, err))
			continue
		}
		refDigest[j], refCounts[j] = fig3Digest(r), c
	}
	ok := make([]bool, n)
	for i := 0; i < n && i < len(b.opsRun); i++ {
		rec := b.opsRun[i]
		good := compositionOK && rec.readOK && refDigest[rec.world] != "" &&
			fig3Digest(rec.res) == refDigest[rec.world] && rec.counts == refCounts[rec.world]
		if !good && len(problems) < 8 {
			problems = append(problems, fmt.Sprintf("op %d (seed %d): restored trio differs from a freshly built one", i, b.worlds[rec.world].seed))
		}
		ok[i] = good
	}
	return ok, problems
}

func (b *fig3Bench) counts() map[string]uint64 {
	out := map[string]uint64{"ops": uint64(len(b.opsRun))}
	for _, rec := range b.opsRun {
		out["pseudofs.renders"] += rec.counts.renders
		out["power.governor_transitions"] += rec.counts.transitions
	}
	return out
}

func (b *fig3Bench) layers(self map[int]map[string]float64) map[string]float64 {
	out := map[string]float64{
		"cloud.build_ms":        median(b.buildMs),
		"cloud.snapshot_ms":     median(b.snapMs),
		"cloud.restore_ms":      medianSelf(self, "cloud.restore"),
		"attack.synergistic_ms": medianSelf(self, "attack.synergistic"),
		"attack.periodic_ms":    medianSelf(self, "attack.periodic"),
		"attack.background_ms":  medianSelf(self, "attack.background"),
		"simclock.advance_ms":   medianSelf(self, "simclock"),
		"simclock.cpu_per_wall": median(b.cpuPerWall),
	}
	pt := b.tickTraced
	if pt.ticks > 0 {
		out["simclock.shard_us"] = us(pt.shard) / float64(pt.ticks)
		out["simclock.join_us"] = us(pt.join) / float64(pt.ticks)
	}
	if pt.startedTicks > 0 {
		out["simclock.tick_us"] = us(pt.startedTotal) / float64(pt.startedTicks)
		out["simclock.pre_us"] = us(pt.pre) / float64(pt.startedTicks)
	}
	c := b.counts()
	ops := float64(max(len(b.opsRun), 1))
	out["pseudofs.renders_per_op"] = float64(c["pseudofs.renders"]) / ops
	out["power.governor_transitions_per_op"] = float64(c["power.governor_transitions"]) / ops
	return out
}

func (b *fig3Bench) close() {}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tickProbe times the phases of every clock step from probe tickers the
// benchmark registers on a world's clock: one at the end of the serial
// pre-phase, one at the end of every server shard, one at the end of the
// post-phase. Tickers are not part of a world snapshot, and the probes only
// read the wall clock, so they leave every simulated byte unchanged.
//
// A step's start is only known where the benchmark itself calls Advance
// (the background campaign, via markStart); inside the attack campaigns
// the pipeline is timed from the end of the pre-phase, and the event
// dispatch and pre-phase tickers stay in the campaign's self time.
type tickProbe struct {
	armed    bool
	start    time.Time // set by markStart before an Advance
	preEnd   time.Time
	shardEnd []time.Time // one slot per shard: written only by its shard
	totals   probeTotals
}

// probeTotals accumulate probe intervals.
type probeTotals struct {
	ticks        int
	pipeline     time.Duration // pre-phase end (or step start) to post-phase end
	shard        time.Duration // pre-phase end to last shard end
	join         time.Duration // last shard end to post-phase end
	startedTicks int
	startedTotal time.Duration // step start to post-phase end, where known
	pre          time.Duration // step start to pre-phase end, where known
}

func (p *probeTotals) addTotals(o probeTotals) {
	p.ticks += o.ticks
	p.pipeline += o.pipeline
	p.shard += o.shard
	p.join += o.join
	p.startedTicks += o.startedTicks
	p.startedTotal += o.startedTotal
	p.pre += o.pre
}

func installProbe(dc *cloud.Datacenter) *tickProbe {
	p := &tickProbe{}
	servers := len(dc.Servers())
	p.shardEnd = make([]time.Time, servers)
	dc.Clock.OnTick(simclock.TickerFunc(func(_, _ float64) {
		if p.armed {
			p.preEnd = time.Now()
		}
	}))
	for s := 0; s < servers; s++ {
		dc.Clock.OnShardTick(s, simclock.TickerFunc(func(_, _ float64) {
			if p.armed {
				p.shardEnd[s] = time.Now()
			}
		}))
	}
	dc.Clock.OnPostTick(simclock.TickerFunc(func(_, _ float64) {
		if !p.armed {
			return
		}
		end := time.Now()
		last := p.preEnd
		for _, t := range p.shardEnd {
			if t.After(last) {
				last = t
			}
		}
		p.totals.ticks++
		p.totals.shard += last.Sub(p.preEnd)
		p.totals.join += end.Sub(last)
		if !p.start.IsZero() {
			p.totals.startedTicks++
			p.totals.startedTotal += end.Sub(p.start)
			p.totals.pre += p.preEnd.Sub(p.start)
			p.totals.pipeline += end.Sub(p.start)
			p.start = time.Time{}
		} else {
			p.totals.pipeline += end.Sub(p.preEnd)
		}
	}))
	return p
}

func (p *tickProbe) arm() {
	p.armed = true
	p.totals = probeTotals{}
}

func (p *tickProbe) markStart() { p.start = time.Now() }

func (p *tickProbe) disarm() probeTotals {
	p.armed = false
	p.start = time.Time{}
	return p.totals
}
