// Serving-path benchmarks: the /v1 read hot loop over the epoch-keyed
// response cache (internal/service/respcache). BenchmarkV1ResultsHit is
// the contract benchmark — `make bench-guard` gates it at 0 allocs/op —
// and BenchmarkServingLoad reports the loadgen-driven p99 and sustained
// req/s archived in BENCH_PR8.json. State is synthetic (fabricated
// inspect results through the scheduler's runner hook), so these measure
// serving, not scan compute; docs/SERVING.md records the expected numbers.
package repro

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/service"
)

// newServingHandler builds a leaksd handler over deterministic synthetic
// state: jobs fabricated inspect results, cycling through the providers
// (one per provider when jobs is the provider count) with a fresh seed
// per lap, so every job is a distinct scan.
func newServingHandler(b *testing.B, disableCache bool, jobs int) http.Handler {
	b.Helper()
	sched := service.New(service.Config{Workers: 2, QueueCap: jobs}, nil)
	sched.SetRunner(func(_ context.Context, req service.ScanRequest) (*service.ScanResult, error) {
		glyphs := []string{core.Available.String(), core.PartiallyAvailable.String(), core.Unavailable.String()}
		channels := service.Channels()
		verdicts := make([]service.Verdict, len(channels))
		for i, ch := range channels {
			verdicts[i] = service.Verdict{Provider: req.Provider, Channel: ch.Name, Availability: glyphs[i%len(glyphs)]}
		}
		return &service.ScanResult{Request: req, Rendered: "synthetic", Verdicts: verdicts}, nil
	})
	sched.Start()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	providers := service.ProviderNames()
	for i := range jobs {
		req := service.ScanRequest{Kind: service.KindInspect, Provider: providers[i%len(providers)], Seed: int64(i / len(providers))}
		if _, err := sched.Submit(req); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := true
		for _, j := range sched.Jobs() {
			if !j.Terminal() {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("seed scans did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	return service.NewHandler(service.APIConfig{
		Scheduler:            sched,
		Version:              "bench",
		DisableResponseCache: disableCache,
	})
}

// servingWriter is a reusable ResponseWriter whose header map persists
// across requests, the way a keep-alive connection's would.
type servingWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *servingWriter) Header() http.Header  { return w.h }
func (w *servingWriter) WriteHeader(code int) { w.code = code }
func (w *servingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// benchV1 drives one endpoint with a reusable request/writer pair over a
// history of jobs scans. revalidate sends If-None-Match with the warm
// response's ETag (the 304 path); disableCache measures the cold render.
func benchV1(b *testing.B, target string, jobs int, revalidate, disableCache bool) {
	h := newServingHandler(b, disableCache, jobs)
	req := httptest.NewRequest(http.MethodGet, target, nil)
	w := &servingWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // warm: populates the cache and the header map
	if w.code != http.StatusOK {
		b.Fatalf("warm request: status %d", w.code)
	}
	if revalidate {
		req.Header.Set("If-None-Match", w.h.Get("Etag"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	want := http.StatusOK
	if revalidate {
		want = http.StatusNotModified
	}
	if w.code != want {
		b.Fatalf("status %d, want %d", w.code, want)
	}
}

// BenchmarkV1ResultsHit is the zero-allocation contract: a steady-state
// /v1/results cache hit must not allocate (gated at 0 allocs/op by
// `make bench-guard`).
func BenchmarkV1ResultsHit(b *testing.B) {
	benchV1(b, "/v1/results?limit=50", len(service.ProviderNames()), false, false)
}

// BenchmarkV1ResultsHit304 is the revalidation path: matching
// If-None-Match answers 304 without touching the body.
func BenchmarkV1ResultsHit304(b *testing.B) {
	benchV1(b, "/v1/results?limit=50", len(service.ProviderNames()), true, false)
}

// BenchmarkV1ResultsCold renders every response fresh (-respcache=false):
// the baseline the cache is measured against.
func BenchmarkV1ResultsCold(b *testing.B) {
	benchV1(b, "/v1/results?limit=50", len(service.ProviderNames()), false, true)
}

// BenchmarkV1ScansCold renders the paged, verdict-filtered scans list
// fresh on every request over a 2,000-job history: the /v1/scans read
// leaksd clients poll, on the path every scan's cache invalidation sends
// it down.
func BenchmarkV1ScansCold(b *testing.B) {
	benchV1(b, "/v1/scans?limit=10&offset=0&verdict=available", 2000, false, true)
}

// BenchmarkServingLoad drives the default leaksload mix closed-loop
// through internal/loadgen and reports the measured p99 and sustained
// throughput; `make bench-guard` gates the p99.
func BenchmarkServingLoad(b *testing.B) {
	h := newServingHandler(b, false, len(service.ProviderNames()))
	cfg := loadgen.Config{
		Mix: []loadgen.Endpoint{
			{Path: "/v1/results", Weight: 6},
			{Path: "/v1/scans", Weight: 2},
			{Path: "/v1/channels", Weight: 1},
			{Path: "/v1/providers", Weight: 1},
			{Path: "/v1/engine", Weight: 1},
			{Path: "/v1/version", Weight: 1},
		},
		Requests:    b.N,
		Concurrency: 4,
		Seed:        1,
	}
	b.ResetTimer()
	res, err := loadgen.Run(context.Background(), h, cfg)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Other > 0 {
		b.Fatalf("%d responses were neither 200 nor 304: %s", res.Other, res)
	}
	b.ReportMetric(float64(res.P99), "p99-ns")
	b.ReportMetric(res.RPS, "req/s")
}
