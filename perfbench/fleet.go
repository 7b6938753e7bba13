package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/service"
)

// fleet-scan: a cluster.Coordinator with two workers scans one fleet spec.
// The workers are leaksd worker handlers behind cluster.NewHTTPTransport,
// reached through an in-memory RoundTripper, so the wire format runs
// without sockets. Operation i scans the fleet at tick DefaultTick+1+i:
// each worker advances its replica by one tick and the incremental engine
// revalidates only what the tick changed. The world pool and the scan
// scheduler are not on the path.

const (
	fleetContainers = 128 // fleet size: per-container cost still grows with it
	fleetWorkers    = 2
	fleetProvider   = "local"
	fleetChecked    = 3  // scans compared with a single-node scan
	fleetOpsPer10   = 65 // scans in a 10-second run
)

type fleetOp struct {
	tick     float64
	res      *cluster.FleetResult
	complete bool // every shard landed and every container has findings
	keep     bool // compared with cluster.SingleNode in check
	readsOK  bool
}

type fleetBench struct {
	o    options
	seed int64
	keep map[int]bool

	ids      []string
	worlds   []*cluster.LocalWorlds
	handlers map[string]http.Handler // by host
	scheds   []*service.Scheduler
	timing   *shardTiming
	tr       *cluster.HTTPTransport
	coord    *cluster.Coordinator

	opsRun []fleetOp
	readMs []float64
	base   engine.Stats
	req0   uint64

	// traced-op samples (ms or counts per op)
	layer map[string][]float64
}

func newFleet(o options) workload {
	s := newStream(o.seed, "fleet/world")
	return &fleetBench{
		o:     o,
		seed:  int64(1 + s.intn(1<<30)),
		layer: make(map[string][]float64),
	}
}

func (b *fleetBench) ops(seconds int) int { return max(20, fleetOpsPer10*seconds/10) }

func (b *fleetBench) spec(tick float64) cluster.Spec {
	return cluster.Spec{Provider: fleetProvider, Seed: b.seed, Containers: fleetContainers, Tick: tick}
}

func (b *fleetBench) setup() error {
	b.handlers = make(map[string]http.Handler)
	b.timing = &shardTiming{}
	for i := 0; i < fleetWorkers; i++ {
		host := fmt.Sprintf("worker-%d", i)
		id := "http://" + host
		lw := cluster.NewLocalWorlds(0)
		sched := service.New(service.Config{}, nil) // never started: workers only serve shards
		b.handlers[host] = service.NewHandler(service.APIConfig{
			Scheduler: sched,
			Cluster:   cluster.NewWorkerNode(cluster.NewWorker(id, lw)),
		})
		b.ids = append(b.ids, id)
		b.worlds = append(b.worlds, lw)
		b.scheds = append(b.scheds, sched)
	}
	b.tr = cluster.NewHTTPTransport(b.ids, &http.Client{Transport: &memTransport{handlers: b.handlers, timing: b.timing}})
	b.coord = cluster.NewCoordinator(cluster.Config{}, &timedTransport{inner: b.tr, timing: b.timing}, b.ids, nil)

	// The first scan builds both replicas and runs the cold engine pass.
	res, err := b.coord.Scan(context.Background(), b.spec(cluster.DefaultTick))
	if err != nil {
		return fmt.Errorf("first fleet scan: %w", err)
	}
	if res.Partial {
		return fmt.Errorf("first fleet scan is partial")
	}
	b.base = b.stats()
	b.req0 = b.coord.Status().Requeues

	// Pick the scans compared with a single-node scan, including the last.
	n := b.ops(b.o.seconds)
	pick := newStream(b.o.seed, "fleet/checked")
	b.keep = map[int]bool{n - 1: true}
	for len(b.keep) < min(fleetChecked, n) {
		b.keep[pick.intn(n)] = true
	}
	return nil
}

// stats sums the engine counters of both replicas.
func (b *fleetBench) stats() engine.Stats {
	var s engine.Stats
	for _, lw := range b.worlds {
		w, err := lw.Fleet(b.spec(0))
		if err != nil {
			continue
		}
		s = s.Add(w.Stats())
	}
	return s
}

func (b *fleetBench) op(i int, t *tracer) (time.Duration, error) {
	tick := float64(cluster.DefaultTick + 1 + i)
	rec := fleetOp{tick: tick, keep: b.keep[i]}
	var before engine.Stats
	if t != nil {
		before = b.stats()
		b.timing.start()
	}
	start := time.Now()
	res, err := b.coord.Scan(context.Background(), b.spec(tick))
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	rec.res, rec.complete = res, fleetComplete(res)
	if t != nil {
		b.traceScan(i, t, start, lat, before)
	}
	rec.readsOK = b.readAll()
	if !rec.keep {
		rec.res = nil // drop the findings, keep the verdict
	}
	b.opsRun = append(b.opsRun, rec)
	return lat, nil
}

// traceScan splits a traced scan: on the worker whose shards took longest
// (the critical path), the time inside its handler and the time on the
// wire; the rest of the scan is the coordinator's.
func (b *fleetBench) traceScan(i int, t *tracer, start time.Time, lat time.Duration, before engine.Stats) {
	per := b.timing.stop()
	var crit workerTime
	for _, w := range per {
		if w.call > crit.call {
			crit = w
		}
	}
	root := t.begin(rootSpan, i, -1)
	t.spans[root].Start = start.Sub(t.epoch)
	t.spans[root].Dur = lat
	t.add("cluster.shard", root, crit.handler)
	t.add("cluster.wire", root, crit.call-crit.handler)

	after := b.stats()
	for k, v := range map[string]uint64{
		"engine.finding_hits":   after.FindingHits - before.FindingHits,
		"engine.finding_misses": after.FindingMisses - before.FindingMisses,
		"engine.host_renders":   after.HostRenders - before.HostRenders,
		"engine.host_hits":      after.HostHits - before.HostHits,
	} {
		b.layer[k] = append(b.layer[k], float64(v))
	}
}

// readAll sends one heartbeat round after the scan: a ping to every
// worker over the HTTP transport, as the coordinator's heartbeat loop
// (Coordinator.Start) sends one every two seconds. One round per scan is
// an assumed rate, chosen so a run has enough reads for a tail.
func (b *fleetBench) readAll() bool {
	ok := true
	for _, id := range b.ids {
		t0 := time.Now()
		hb, err := b.tr.Ping(context.Background(), id)
		b.readMs = append(b.readMs, ms(time.Since(t0)))
		if err != nil || hb.WorkerID != id {
			ok = false
		}
	}
	return ok
}

func (b *fleetBench) reads() []float64 { return b.readMs }

// fleetComplete reports whether every shard of a scan landed and every
// container has findings.
func fleetComplete(r *cluster.FleetResult) bool {
	if r == nil || r.Partial || len(r.Findings) != fleetContainers {
		return false
	}
	for _, f := range r.Findings {
		if f == nil {
			return false
		}
	}
	for _, s := range r.Shards {
		if s.Status != cluster.ShardDone {
			return false
		}
	}
	return true
}

func findingsDigest(f [][]core.Finding) (string, error) {
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func (b *fleetBench) check(n int) ([]bool, []string) {
	var problems []string
	ok := make([]bool, n)
	for i := 0; i < n && i < len(b.opsRun); i++ {
		rec := b.opsRun[i]
		good := rec.readsOK && rec.complete
		if !good && len(problems) < 8 {
			problems = append(problems, fmt.Sprintf("op %d: incomplete scan or failed ping", i))
		}
		if good && rec.keep {
			want, _, err := cluster.SingleNode(b.spec(rec.tick), 0)
			if err != nil {
				problems = append(problems, fmt.Sprintf("single-node scan at tick %g: %v", rec.tick, err))
				good = false
			} else {
				got, err1 := findingsDigest(rec.res.Findings)
				exp, err2 := findingsDigest(want)
				if err1 != nil || err2 != nil || got != exp {
					problems = append(problems, fmt.Sprintf("op %d: cluster scan at tick %g differs from the single-node scan", i, rec.tick))
					good = false
				}
			}
		}
		ok[i] = good
	}
	return ok, problems
}

func (b *fleetBench) counts() map[string]uint64 {
	s := b.stats()
	return map[string]uint64{
		"ops":                   uint64(len(b.opsRun)),
		"engine.finding_hits":   s.FindingHits - b.base.FindingHits,
		"engine.finding_misses": s.FindingMisses - b.base.FindingMisses,
		"engine.host_renders":   s.HostRenders - b.base.HostRenders,
		"engine.host_hits":      s.HostHits - b.base.HostHits,
		"engine.generation":     s.Generation,
		"cluster.requeues":      b.coord.Status().Requeues - b.req0,
	}
}

func (b *fleetBench) layers(self map[int]map[string]float64) map[string]float64 {
	out := map[string]float64{
		"cluster.shard_ms":          medianSelf(self, "cluster.shard"),
		"cluster.wire_ms":           medianSelf(self, "cluster.wire"),
		"cluster.coord_overhead_ms": medianSelf(self, rootSpan),
	}
	for _, k := range []string{"engine.finding_hits", "engine.finding_misses", "engine.host_renders", "engine.host_hits"} {
		out[k] = mean(b.layer[k])
	}
	if h, m := out["engine.finding_hits"], out["engine.finding_misses"]; h+m > 0 {
		out["engine.hit_ratio"] = h / (h + m)
	}
	out["cluster.requeues"] = float64(b.counts()["cluster.requeues"])
	return out
}

func (b *fleetBench) close() {
	if b.coord != nil {
		b.coord.Stop()
	}
	for _, s := range b.scheds {
		_ = s.Shutdown(context.Background()) // never started: returns at once
	}
}

// memTransport is an http.RoundTripper that serves each request with the
// handler of its URL host, in process: the cluster's wire format (JSON
// over HTTP semantics) without sockets.
type memTransport struct {
	handlers map[string]http.Handler
	timing   *shardTiming
}

func (m *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := m.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-memory handler for host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	if req.URL.Path == "/v1/cluster/shards" {
		m.timing.handled("http://"+req.URL.Host, time.Since(t0))
	}
	if req.Body != nil {
		req.Body.Close()
	}
	res := rec.Result()
	res.Request = req
	if res.Body == nil {
		res.Body = http.NoBody
	}
	return res, nil
}

// shardTiming accumulates, per worker, the time of its shard calls as the
// coordinator sees them (call) and inside the worker's handler (handler).
// The coordinator serializes calls per worker, so each worker's sums are
// its busy time within a scan.
type shardTiming struct {
	mu  sync.Mutex
	on  bool
	per map[string]workerTime
}

type workerTime struct{ call, handler time.Duration }

func (s *shardTiming) start() {
	s.mu.Lock()
	s.on, s.per = true, make(map[string]workerTime)
	s.mu.Unlock()
}

func (s *shardTiming) stop() map[string]workerTime {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.on = false
	return s.per
}

func (s *shardTiming) handled(worker string, d time.Duration) {
	s.mu.Lock()
	if s.on {
		w := s.per[worker]
		w.handler += d
		s.per[worker] = w
	}
	s.mu.Unlock()
}

func (s *shardTiming) called(worker string, d time.Duration) {
	s.mu.Lock()
	if s.on {
		w := s.per[worker]
		w.call += d
		s.per[worker] = w
	}
	s.mu.Unlock()
}

// timedTransport wraps the coordinator's transport and times every shard
// call.
type timedTransport struct {
	inner  cluster.Transport
	timing *shardTiming
}

func (t *timedTransport) ExecShard(ctx context.Context, workerID string, req *cluster.ShardRequest) (*cluster.ShardResult, error) {
	t0 := time.Now()
	res, err := t.inner.ExecShard(ctx, workerID, req)
	t.timing.called(workerID, time.Since(t0))
	return res, err
}

func (t *timedTransport) Ping(ctx context.Context, workerID string) (*cluster.Heartbeat, error) {
	return t.inner.Ping(ctx, workerID)
}
