package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// newTestAPI builds a started scheduler + httptest server around the leaksd
// handler. runner == nil keeps the real experiment-backed executor.
func newTestAPI(t *testing.T, cfg Config, runner func(context.Context, ScanRequest) (*ScanResult, error)) (*Scheduler, *httptest.Server) {
	t.Helper()
	if cfg.Sleep == nil {
		cfg.Sleep = instantSleep
	}
	s := New(cfg, nil)
	if runner != nil {
		s.SetRunner(runner)
	}
	s.Start()
	srv := httptest.NewServer(NewHandler(APIConfig{
		Scheduler: s,
		Version:   "leaksd test (rev deadbeef)",
		Heartbeat: 50 * time.Millisecond,
	}))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		srv.Close()
	})
	return s, srv
}

func postScanJSON(t *testing.T, srv *httptest.Server, body string) (*http.Response, Job) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/scans", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /scans: %v", err)
	}
	defer resp.Body.Close()
	var job Job
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &job); err != nil {
			t.Fatalf("decode job from %s: %v", raw, err)
		}
	}
	return resp, job
}

func pollScanDone(t *testing.T, srv *httptest.Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/scans/" + id)
		if err != nil {
			t.Fatalf("GET /scans/%s: %v", id, err)
		}
		var job Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /scans/%s: %v", id, err)
		}
		if job.Terminal() {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("scan %s never finished", id)
	return Job{}
}

// metricValue extracts one sample (by exact name+labels prefix) from a
// Prometheus text scrape. A family whose only child has never been touched
// renders no sample line; that reads as 0.
func metricValue(t *testing.T, scrape, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, sample+" "), 64)
			if err != nil {
				t.Fatalf("parse metric line %q: %v", line, err)
			}
			return v
		}
	}
	family := sample
	if i := strings.IndexByte(family, '{'); i >= 0 {
		family = family[:i]
	}
	if !strings.Contains(scrape, "# TYPE "+family+" ") {
		t.Fatalf("family %q not present in scrape:\n%s", family, scrape)
	}
	return 0
}

func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content-type = %q; want the 0.0.4 exposition format", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// sseClient tails /events in a goroutine, decoding data frames onto a
// channel until the stream ends.
func sseClient(t *testing.T, srv *httptest.Server) (<-chan Event, func()) {
	t.Helper()
	req, _ := http.NewRequest("GET", srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type = %q", ct)
	}
	out := make(chan Event, 4096)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue // event: lines, heartbeats, separators
			}
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err == nil {
				out <- ev
			}
		}
	}()
	return out, func() { resp.Body.Close() }
}

func TestAPIScanLifecycle(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 2}, func(_ context.Context, req ScanRequest) (*ScanResult, error) {
		return fakeResult(req), nil
	})

	resp, job := postScanJSON(t, srv, `{"kind":"table1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d; want 202", resp.StatusCode)
	}
	if job.ID == "" || job.Status == "" {
		t.Fatalf("job = %+v; want an ID and status", job)
	}

	done := pollScanDone(t, srv, job.ID)
	if done.Status != StatusDone || done.Result == nil {
		t.Fatalf("job = %+v; want done with embedded result", done)
	}

	// The job shows up in the list.
	lresp, err := http.Get(srv.URL + "/scans")
	if err != nil {
		t.Fatalf("GET /scans: %v", err)
	}
	var list struct {
		Scans []Job `json:"scans"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	lresp.Body.Close()
	if len(list.Scans) != 1 || list.Scans[0].ID != job.ID {
		t.Fatalf("list = %+v; want exactly the submitted job", list.Scans)
	}

	// Latest verdicts are queryable, filtered by provider.
	rresp, err := http.Get(srv.URL + "/results?provider=local")
	if err != nil {
		t.Fatalf("GET /results: %v", err)
	}
	var results struct {
		Results []ProviderVerdicts `json:"results"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&results); err != nil {
		t.Fatalf("decode results: %v", err)
	}
	rresp.Body.Close()
	if len(results.Results) != 1 || results.Results[0].Provider != "local" || len(results.Results[0].Verdicts) != 2 {
		t.Fatalf("results = %+v; want local with two verdicts", results.Results)
	}
}

func TestAPIErrorPaths(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 1}, func(_ context.Context, req ScanRequest) (*ScanResult, error) {
		return fakeResult(req), nil
	})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/scans", `{not json`, http.StatusBadRequest},
		{"POST", "/scans", `{"kind":"warp-drive"}`, http.StatusBadRequest},
		{"POST", "/scans", `{"kind":"inspect"}`, http.StatusBadRequest},
		{"POST", "/scans", `{"kind":"table1","bogus_field":1}`, http.StatusBadRequest},
		{"GET", "/scans/scan-999999", "", http.StatusNotFound},
		{"GET", "/results?provider=mars", "", http.StatusNotFound},
		{"DELETE", "/scans", "", http.StatusMethodNotAllowed},
		{"GET", "/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if tc.method == "POST" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d; want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestAPIIntrospectionEndpoints(t *testing.T) {
	_, srv := newTestAPI(t, Config{Workers: 1}, func(_ context.Context, req ScanRequest) (*ScanResult, error) {
		return fakeResult(req), nil
	})

	var channels struct {
		Channels []ChannelInfo `json:"channels"`
	}
	resp, err := http.Get(srv.URL + "/channels")
	if err != nil {
		t.Fatalf("GET /channels: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&channels); err != nil {
		t.Fatalf("decode channels: %v", err)
	}
	resp.Body.Close()
	if len(channels.Channels) == 0 {
		t.Fatal("channel registry empty over the API")
	}

	var providers struct {
		Providers []string `json:"providers"`
	}
	resp, err = http.Get(srv.URL + "/providers")
	if err != nil {
		t.Fatalf("GET /providers: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&providers); err != nil {
		t.Fatalf("decode providers: %v", err)
	}
	resp.Body.Close()
	if len(providers.Providers) != 7 { // local, lxc, cc1..cc5
		t.Fatalf("providers = %v; want the 7 Table I profiles", providers.Providers)
	}

	var health struct {
		Status   string `json:"status"`
		Version  string `json:"version"`
		Draining bool   `json:"draining"`
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Draining || !strings.Contains(health.Version, "leaksd test") {
		t.Fatalf("healthz = %+v", health)
	}

	resp, err = http.Get(srv.URL + "/version")
	if err != nil {
		t.Fatalf("GET /version: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte("deadbeef")) {
		t.Fatalf("/version = %s; want the build string", raw)
	}
}

// TestAPIAcceptance is the PR's acceptance scenario: at least eight
// overlapping scans through the HTTP API, queue-depth and cache-hit
// metrics observably moving on /metrics, verdicts arriving over SSE, and
// a graceful shutdown that drains in-flight jobs without losing results.
func TestAPIAcceptance(t *testing.T) {
	gate := make(chan struct{}, 64) // one token per permitted scan execution
	sched, srv := newTestAPI(t, Config{Workers: 1, QueueCap: 32}, func(ctx context.Context, req ScanRequest) (*ScanResult, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &ScanResult{
			Request:  req,
			Rendered: fmt.Sprintf("acceptance scan seed=%d", req.Seed),
			Verdicts: []Verdict{{
				Provider: "local", Channel: fmt.Sprintf("ch-%d", req.Seed), Availability: "●",
			}},
		}, nil
	})

	events, closeSSE := sseClient(t, srv)
	defer closeSSE()

	// Phase 1 — eight overlapping scans. One worker and a gated runner
	// guarantee genuine overlap: while scan 1 executes, scans 2..8 queue.
	const n = 8
	ids := make([]string, 0, n)
	for i := 1; i <= n; i++ {
		resp, job := postScanJSON(t, srv, fmt.Sprintf(`{"kind":"table1","seed":%d}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan %d: status %d; want 202", i, resp.StatusCode)
		}
		ids = append(ids, job.ID)
	}

	// Queue depth is visible on /metrics while the backlog exists.
	if depth := metricValue(t, scrape(t, srv), "leaksd_queue_depth"); depth < 1 {
		t.Fatalf("queue depth = %g with 8 submitted and 1 worker; want >= 1", depth)
	}

	// Release the backlog and wait for every scan to land.
	for i := 0; i < n; i++ {
		gate <- struct{}{}
	}
	for _, id := range ids {
		if done := pollScanDone(t, srv, id); done.Status != StatusDone {
			t.Fatalf("scan %s = %s (%s); want done", id, done.Status, done.Error)
		}
	}

	// Phase 2 — resubmitting an identical config is a cache hit: HTTP 200
	// (not 202), no recompute, and the hit counter moves.
	before := metricValue(t, scrape(t, srv), "leaksd_cache_hits_total")
	resp, hit := postScanJSON(t, srv, `{"kind":"table1","seed":1,"workers":4}`)
	if resp.StatusCode != http.StatusOK || !hit.CacheHit {
		t.Fatalf("duplicate scan: status %d cache_hit %v; want 200 + hit", resp.StatusCode, hit.CacheHit)
	}
	if hit.Result == nil || hit.Result.Rendered != "acceptance scan seed=1" {
		t.Fatalf("cache hit result = %+v; want the stored render", hit.Result)
	}
	after := metricValue(t, scrape(t, srv), "leaksd_cache_hits_total")
	if after <= before {
		t.Fatalf("cache-hit counter did not move: %g -> %g", before, after)
	}
	if misses := metricValue(t, scrape(t, srv), "leaksd_cache_misses_total"); misses < n {
		t.Fatalf("cache misses = %g; want >= %d", misses, n)
	}

	// Phase 3 — the SSE stream carried one verdict per scan plus the
	// lifecycle events (cache hits emit scan_done without verdicts).
	verdicts := make(map[string]bool)
	doneEvents := 0
	timeout := time.After(10 * time.Second)
	for len(verdicts) < n || doneEvents < n+1 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("SSE stream ended early: %d verdicts, %d done events", len(verdicts), doneEvents)
			}
			switch ev.Type {
			case EventVerdict:
				if ev.Provider != "local" || ev.Availability != "●" || !ev.Changed {
					t.Fatalf("verdict event = %+v", ev)
				}
				verdicts[ev.Channel] = true
			case EventScanDone:
				doneEvents++
			}
		case <-timeout:
			t.Fatalf("SSE starved: %d/%d verdicts, %d done events", len(verdicts), n, doneEvents)
		}
	}

	// Phase 4 — graceful shutdown drains in-flight work without losing
	// results. Submit a scan, leave it blocked, then drain.
	resp, lastJob := postScanJSON(t, srv, `{"kind":"table1","seed":99}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain scan: status %d", resp.StatusCode)
	}
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- sched.Shutdown(ctx)
	}()
	// While draining, new submissions are refused with 503. A probe that
	// lands before Shutdown flips the drain flag is accepted and queued,
	// and the drain runs it too, so it needs a gate token of its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, _ := postScanJSON(t, srv, `{"kind":"table1","seed":100}`)
		if r.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if r.StatusCode == http.StatusAccepted {
			gate <- struct{}{}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never refused submissions while draining")
		}
		time.Sleep(2 * time.Millisecond)
	}
	gate <- struct{}{} // let the in-flight scan finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if job, ok := sched.JobByID(lastJob.ID); !ok || job.Status != StatusDone || job.Result == nil {
		t.Fatalf("in-flight job after drain = %+v; want done with result", job)
	}
	// The drain closed the SSE stream.
	select {
	case _, ok := <-events:
		for ok {
			_, ok = <-events
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open after drain")
	}
}
