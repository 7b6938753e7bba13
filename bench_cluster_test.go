// Cluster scaling benchmarks: one fleet spec, N in-process workers on
// per-worker replicas, the real coordinator partitioning every scan. The
// sub-benchmarks differ only in worker count, so the workers=1 →
// workers=4 ns/op ratio is the cluster's scaling curve. On a multi-core
// host the curve is near-linear while shards outnumber workers
// (validation is per-container CPU work on independent engines); on a
// single-core CI host it is necessarily flat — and that flatness is
// itself the useful number, because it bounds the coordinator's whole
// overhead (partitioning, dispatch goroutines, heartbeats, merging) at
// the difference between the workers=1 and workers=4 lines. Archived in
// BENCH_PR8.json. Every iteration advances the observation tick, so each
// scan revalidates dirty subsystems through the epoch-delta path instead
// of replaying a warm cache.
package repro

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// benchFleetContainers keeps total scan work identical across worker
// counts; benchShardSize fixes the partition layout (8 shards) so only
// the worker fleet varies between sub-benchmarks.
const (
	benchFleetContainers = 48
	benchShardSize       = 6
)

// TestClusterScaling is the wall-clock half of the scaling acceptance:
// a 4-worker cluster scan of a large fleet must beat the 1-worker scan
// by at least 2× on a host with the cores to show it. Opt-in
// (LEAKSD_CLUSTER_SCALE=1) because it needs ≥4 CPUs and seconds of
// compute — single-core CI measures the same topology via
// BenchmarkClusterFleet's overhead bound instead.
func TestClusterScaling(t *testing.T) {
	if os.Getenv("LEAKSD_CLUSTER_SCALE") == "" {
		t.Skip("set LEAKSD_CLUSTER_SCALE=1 to run the wall-clock scaling acceptance")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful scaling curve, have %d", runtime.GOMAXPROCS(0))
	}
	const containers = 512
	spec := cluster.Spec{Provider: "local", Containers: containers}
	scan := func(n int) time.Duration {
		workers := make([]*cluster.Worker, n)
		ids := make([]string, n)
		for i := range workers {
			ids[i] = fmt.Sprintf("w%d", i)
			worlds := cluster.NewLocalWorlds(1)
			if _, err := worlds.Fleet(spec); err != nil {
				t.Fatal(err)
			}
			workers[i] = cluster.NewWorker(ids[i], worlds)
		}
		coord := cluster.NewCoordinator(cluster.Config{ShardSize: containers / (4 * n)},
			cluster.NewInProc(workers...), ids, cluster.NewMetrics(nil))
		run := spec
		run.Tick = cluster.DefaultTick + 1 // dirty every subsystem once
		start := time.Now()
		res, err := coord.Scan(context.Background(), run)
		if err != nil || res.Partial {
			t.Fatalf("scan at %d workers: err=%v partial=%v", n, err, res != nil && res.Partial)
		}
		return time.Since(start)
	}
	one, four := scan(1), scan(4)
	t.Logf("workers=1 %v, workers=4 %v (%.2fx)", one, four, float64(one)/float64(four))
	if four > one/2 {
		t.Errorf("4-worker scan %v not ≥2x faster than 1-worker %v", four, one)
	}
}

// BenchmarkClusterFleet scans through the in-process transport at 1, 2
// and 4 workers, and at 2 workers over HTTP ("http/workers=2"): an
// HTTPTransport whose client reaches each worker's leaksd handler through
// an in-memory RoundTripper, so the scan also pays the JSON request, the
// binary shard-result encoding and the coordinator's reply read, without
// sockets.
func BenchmarkClusterFleet(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			benchClusterFleet(b, n, func(workers []*cluster.Worker) cluster.Transport {
				return cluster.NewInProc(workers...)
			})
		})
	}
	b.Run("http/workers=2", func(b *testing.B) {
		benchClusterFleet(b, 2, func(workers []*cluster.Worker) cluster.Transport {
			handlers := make(map[string]http.Handler, len(workers))
			ids := make([]string, len(workers))
			for i, w := range workers {
				sched := service.New(service.Config{}, nil) // never started: workers only serve shards
				handlers[w.ID()] = service.NewHandler(service.APIConfig{
					Scheduler: sched,
					Cluster:   cluster.NewWorkerNode(w),
				})
				ids[i] = w.ID()
			}
			// A bare ID is its own base URL's host ("w0" → http://w0).
			return cluster.NewHTTPTransport(ids, &http.Client{Transport: memRoundTripper(handlers)})
		})
	})
}

// benchClusterFleet scans a benchFleetContainers fleet on n workers
// reached through the transport newTransport builds over them.
func benchClusterFleet(b *testing.B, n int, newTransport func([]*cluster.Worker) cluster.Transport) {
	spec := cluster.Spec{Provider: "local", Containers: benchFleetContainers}
	// Per-worker replicas — the deployment topology, and the one that
	// scales: each worker validates its shards on its own engine. (A
	// SharedWorlds single engine serializes on shared caches; replica
	// clock advances cost microseconds, so duplicating them is free.)
	// Replicas are built outside the timer: the benchmark measures scan
	// fan-out, not world construction.
	workers := make([]*cluster.Worker, n)
	ids := make([]string, n)
	replicas := make([]*cluster.FleetWorld, n)
	for i := range workers {
		ids[i] = fmt.Sprintf("w%d", i)
		worlds := cluster.NewLocalWorlds(1)
		w, err := worlds.Fleet(spec)
		if err != nil {
			b.Fatal(err)
		}
		replicas[i] = w
		workers[i] = cluster.NewWorker(ids[i], worlds)
	}
	coord := cluster.NewCoordinator(cluster.Config{ShardSize: benchShardSize},
		newTransport(workers), ids, cluster.NewMetrics(nil))
	// renders/op is every replica's pseudo-file renders per scan: the
	// engine pass's render work, independent of timer noise.
	renders := func() (sum uint64) {
		for _, w := range replicas {
			sum += w.Renders()
		}
		return sum
	}
	before := renders()

	tick := float64(cluster.DefaultTick)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++ // dirty the world: every scan re-renders changed subsystems
		spec.Tick = tick
		res, err := coord.Scan(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.Partial || len(res.Findings) != benchFleetContainers {
			b.Fatalf("iteration %d: partial=%v findings=%d", i, res.Partial, len(res.Findings))
		}
	}
	b.ReportMetric(float64(renders()-before)/float64(b.N), "renders/op")
}

// memRoundTripper serves each request with the handler of its URL host,
// in process.
type memRoundTripper map[string]http.Handler

func (m memRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := m[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-memory handler for host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	res := rec.Result()
	res.Request = req
	return res, nil
}
