package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

// TestAPITable1ByteIdenticalToCLI is the determinism half of the PR's
// acceptance contract: with identical seeds, the Table I render returned by
// the HTTP API is byte-identical to what `leakscan -table1` prints (the CLI
// appends one newline via Fprintln; the API returns the raw render).
func TestAPITable1ByteIdenticalToCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I compute in -short mode")
	}
	// What the CLI computes: experiments.Table1(ctx, spec, 0, jobs),
	// printed with fmt.Fprintln.
	cli, err := experiments.Table1(context.Background(), chaos.Spec{}, 0, 0)
	if err != nil {
		t.Fatalf("CLI-path Table I: %v", err)
	}
	want := cli.String()

	_, srv := newTestAPI(t, Config{Workers: 2}, nil) // nil runner = real runScan
	resp, job := postScanJSON(t, srv, `{"kind":"table1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d; want 202", resp.StatusCode)
	}
	done := pollScanDone(t, srv, job.ID)
	if done.Status != StatusDone {
		t.Fatalf("scan = %s (%s); want done", done.Status, done.Error)
	}
	if done.Result.Rendered != want {
		t.Fatalf("API render differs from CLI render:\nAPI:\n%s\nCLI:\n%s", done.Result.Rendered, want)
	}
	// The structured verdicts cover all six Table I providers.
	providers := make(map[string]bool)
	for _, v := range done.Result.Verdicts {
		providers[v.Provider] = true
	}
	if len(providers) != 6 {
		t.Fatalf("verdict providers = %v; want the 6 Table I columns", providers)
	}

	// A different worker count dedups to the same cached bytes (HTTP 200).
	resp2, hit := postScanJSON(t, srv, `{"kind":"table1","workers":3}`)
	if resp2.StatusCode != http.StatusOK || !hit.CacheHit {
		t.Fatalf("worker-count variant: status %d hit %v; want cached 200", resp2.StatusCode, hit.CacheHit)
	}
	if hit.Result.Rendered != want {
		t.Fatal("cached render differs from CLI render")
	}
}

// TestAPIInspectSeedVariants checks that the datacenter seed threads through
// the API: the default seed reproduces the historical world, a different
// seed produces a different (but internally deterministic) render.
func TestAPIInspectSeedVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("inspection compute in -short mode")
	}
	_, srv := newTestAPI(t, Config{Workers: 2}, nil)

	submit := func(body string) Job {
		t.Helper()
		resp, job := postScanJSON(t, srv, body)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", body, resp.StatusCode)
		}
		if job.Terminal() {
			return job
		}
		return pollScanDone(t, srv, job.ID)
	}

	def := submit(`{"kind":"inspect","provider":"local"}`)
	if def.Status != StatusDone {
		t.Fatalf("default inspect = %s (%s)", def.Status, def.Error)
	}
	// Seed 0 and the explicit historical default are the same question.
	explicit := submit(`{"kind":"inspect","provider":"local","seed":7844}`) // 0x1ea4
	if explicit.Result.Rendered != def.Result.Rendered {
		t.Fatal("explicit default seed rendered differently from seed 0")
	}
	if !explicit.CacheHit {
		t.Error("explicit default seed missed the cache; Key() should canonicalize it")
	}

	other := submit(`{"kind":"inspect","provider":"local","seed":99}`)
	if other.Status != StatusDone {
		t.Fatalf("seed-99 inspect = %s (%s)", other.Status, other.Error)
	}
	if other.CacheHit {
		t.Error("distinct seed unexpectedly served from cache")
	}
	// Same seed again: cached, byte-identical.
	again := submit(`{"kind":"inspect","provider":"local","seed":99}`)
	if !again.CacheHit || again.Result.Rendered != other.Result.Rendered {
		t.Fatalf("repeat seed-99 inspect: hit=%v identical=%v", again.CacheHit, again.Result.Rendered == other.Result.Rendered)
	}
}

// TestAPIRequestTimeout verifies the non-streaming request deadline exists
// without relying on a slow handler: the deadline propagates through the
// request context.
func TestAPIRequestTimeout(t *testing.T) {
	s := New(Config{Workers: 1, Sleep: instantSleep}, nil)
	s.SetRunner(func(_ context.Context, req ScanRequest) (*ScanResult, error) { return fakeResult(req), nil })
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	var sawDeadline bool
	probe := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
		w.WriteHeader(http.StatusOK)
	})
	// Wrap the probe with the same middleware the real routes use.
	a := &api{cfg: APIConfig{RequestTimeout: 100 * time.Millisecond}}
	srv := httptest.NewServer(a.timed(probe.ServeHTTP))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !sawDeadline {
		t.Fatal("request context carried no deadline")
	}
}

// TestJobJSONShape pins the wire shape clients script against: zero-valued
// timestamps are omitted while queued, and the result embeds on completion.
func TestJobJSONShape(t *testing.T) {
	queued := Job{
		ID:          "scan-000001",
		Request:     ScanRequest{Kind: KindTable1},
		Status:      StatusQueued,
		SubmittedAt: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
	}
	raw, err := json.Marshal(queued)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(raw), "started_at") || strings.Contains(string(raw), "finished_at") {
		t.Fatalf("queued job leaks zero timestamps: %s", raw)
	}
	for _, want := range []string{`"id":"scan-000001"`, `"status":"queued"`, `"kind":"table1"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("job JSON %s lacks %s", raw, want)
		}
	}
}
