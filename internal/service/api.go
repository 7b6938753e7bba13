package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
)

// APIConfig wires the HTTP layer. Scheduler is required; everything else
// has defaults.
type APIConfig struct {
	Scheduler *Scheduler
	// Version is the build-info string served by /healthz and /version.
	Version string
	// RequestTimeout bounds each non-streaming request's context
	// (default 30s). The SSE endpoint is exempt: it lives until the
	// client hangs up or the server drains.
	RequestTimeout time.Duration
	// Heartbeat is the SSE keep-alive comment interval (default 15s).
	Heartbeat time.Duration
	// Cluster is the node's cluster identity (nil = standalone). It gates
	// the /v1/cluster surface: the status endpoint always answers, the
	// scan/shard/ping endpoints answer 409 wrong_role unless the node
	// plays the required role.
	Cluster *cluster.Node
	// DisableResponseCache turns off the /v1 response cache and the
	// ETag/If-None-Match machinery that rides on it (leaksd
	// -respcache=false; benchmarks use it to measure cold renders). Every
	// GET then renders fresh — correct, just not allocation-free.
	DisableResponseCache bool
	// Now is the wall clock (default time.Now).
	Now func() time.Time
}

type api struct {
	cfg      APIConfig
	sched    *Scheduler
	start    time.Time
	policies *policyManager

	mux *http.ServeMux
	// endpoints maps URL paths to the zero-alloc cached serving path;
	// ServeHTTP consults it before the mux for GET/HEAD requests.
	endpoints map[string]*cachedEndpoint
	// providers is the known-provider set, built once: ProviderByName
	// allocates the profile slice per call, which the hot path cannot.
	providers map[string]struct{}
	// runtimes is the known runtime-target set, same reasoning.
	runtimes map[string]struct{}
}

// NewHandler builds the leaksd HTTP API. The current surface lives under
// the versioned /v1 prefix:
//
//	POST /v1/scans        submit a scan (202 queued, 200 cache hit)
//	GET  /v1/scans        list jobs (?limit=&offset=&provider=&verdict=)
//	GET  /v1/scans/{id}   one job with its result
//	GET  /v1/results      latest verdicts per provider (?limit=&offset=&provider=&runtime=&verdict=)
//	GET  /v1/matrix       latest runtime-aware availability matrix (?limit=&offset=&provider=&runtime=&verdict=)
//	GET  /v1/channels     the Table I channel registry
//	GET  /v1/providers    inspectable provider profiles
//	GET  /v1/runtimes     inspectable container-runtime targets
//	GET  /v1/engine       incremental-engine cache and epoch statistics
//	GET  /v1/events       SSE stream of verdict / scan / policy events
//	POST /v1/policies     synthesize (or store) a mask policy (201)
//	GET  /v1/policies     list policy records
//	GET  /v1/policies/{id}    one policy with report and latest rollout
//	DELETE /v1/policies/{id}  remove a policy (204)
//	POST /v1/policies/{id}/rollout  staged canary rollout (200 terminal status)
//	GET  /v1/policies/{id}/rollout  latest rollout status
//	GET  /v1/cluster      cluster role/status envelope (all roles)
//	POST /v1/cluster/scans   partitioned fleet scan (coordinator role)
//	POST /v1/cluster/shards  execute one shard (worker role)
//	GET  /v1/cluster/ping    liveness probe (worker role)
//	GET  /v1/metrics      Prometheus text exposition
//	GET  /v1/healthz      liveness + uptime
//	GET  /v1/version      build info
//
// Every /v1 error response carries the structured envelope
// {"error":{"code":"...","message":"..."}}.
//
// The /v1 read endpoints (scans, results, matrix, channels, providers,
// runtimes, engine, version) serve through an epoch-keyed response cache: bodies are
// rendered once per (canonical query, epoch) and replayed with zero heap
// allocations until the backing state mutates, and every 200 carries a
// strong ETag derived from the epoch snapshot so If-None-Match
// revalidation answers 304 for free. docs/SERVING.md documents the
// contract.
//
// The pre-versioning routes (POST /scans, GET /scans, /scans/{id},
// /results, /channels, /providers, /events, /metrics, /healthz, /version)
// remain as byte-identical thin aliases: same payloads, same legacy
// {"error":"..."} failure shape, no pagination. They answer with a
// `Deprecation` header and a `Link: </v1/...>; rel="successor-version"`
// pointer; see ARCHITECTURE.md for the deprecation policy.
//
// The handler is exactly what cmd/leaksd serves; tests drive it through
// net/http/httptest.
func NewHandler(cfg APIConfig) http.Handler {
	if cfg.Scheduler == nil {
		panic("service: APIConfig.Scheduler is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	a := &api{cfg: cfg, sched: cfg.Scheduler, start: cfg.Now(), policies: newPolicyManager()}

	a.providers = make(map[string]struct{})
	for _, name := range ProviderNames() {
		a.providers[name] = struct{}{}
	}
	a.runtimes = make(map[string]struct{})
	for _, name := range RuntimeNames() {
		a.runtimes[name] = struct{}{}
	}
	s := cfg.Scheduler
	a.endpoints = map[string]*cachedEndpoint{
		"/v1/scans": a.newCachedEndpoint("scans", true,
			func() (uint64, bool) { return s.JobsEpoch(), true }, a.renderScans),
		"/v1/results": a.newCachedEndpoint("results", true,
			func() (uint64, bool) { return s.ResultsEpoch(), true }, a.renderResults),
		"/v1/matrix": a.newCachedEndpoint("matrix", true,
			func() (uint64, bool) { return s.ResultsEpoch(), true }, a.renderMatrix),
		"/v1/channels":  a.newCachedEndpoint("channels", false, staticEpoch, a.renderChannels),
		"/v1/providers": a.newCachedEndpoint("providers", false, staticEpoch, a.renderProviders),
		"/v1/runtimes":  a.newCachedEndpoint("runtimes", false, staticEpoch, a.renderRuntimes),
		"/v1/engine": a.newCachedEndpoint("engine", false,
			func() (uint64, bool) { return s.EngineEpoch(), s.RunningScans() == 0 }, a.renderEngine),
		"/v1/version": a.newCachedEndpoint("version", false, staticEpoch, a.renderVersion),
	}

	mux := http.NewServeMux()
	a.mux = mux

	// Versioned surface: structured error envelope, pagination, filters,
	// and (on the read endpoints) the epoch-keyed response cache. Cached
	// GETs short-circuit in ServeHTTP; their mux registrations exist so
	// other methods keep 405 semantics.
	mux.HandleFunc("POST /v1/scans", a.timed(a.postScanV1))
	mux.HandleFunc("GET /v1/scans", a.cachedHandler("/v1/scans"))
	mux.HandleFunc("GET /v1/scans/{id}", a.timed(a.getScanV1))
	mux.HandleFunc("GET /v1/results", a.cachedHandler("/v1/results"))
	mux.HandleFunc("GET /v1/matrix", a.cachedHandler("/v1/matrix"))
	mux.HandleFunc("GET /v1/channels", a.cachedHandler("/v1/channels"))
	mux.HandleFunc("GET /v1/providers", a.cachedHandler("/v1/providers"))
	mux.HandleFunc("GET /v1/runtimes", a.cachedHandler("/v1/runtimes"))
	mux.HandleFunc("GET /v1/engine", a.cachedHandler("/v1/engine"))
	mux.HandleFunc("GET /v1/events", a.events) // untimed: streams
	mux.HandleFunc("POST /v1/policies", a.timed(a.postPoliciesV1))
	mux.HandleFunc("GET /v1/policies", a.timed(a.getPoliciesV1))
	mux.HandleFunc("GET /v1/policies/{id}", a.timed(a.getPolicyV1))
	mux.HandleFunc("DELETE /v1/policies/{id}", a.timed(a.deletePolicyV1))
	mux.HandleFunc("POST /v1/policies/{id}/rollout", a.timed(a.postPolicyRolloutV1))
	mux.HandleFunc("GET /v1/policies/{id}/rollout", a.timed(a.getPolicyRolloutV1))
	mux.HandleFunc("GET /v1/cluster", a.timed(a.getClusterV1))
	mux.HandleFunc("POST /v1/cluster/scans", a.timed(a.postClusterScanV1))
	mux.HandleFunc("POST /v1/cluster/shards", a.timed(a.postClusterShardV1))
	mux.HandleFunc("GET /v1/cluster/ping", a.timed(a.getClusterPingV1))
	mux.HandleFunc("GET /v1/metrics", a.metrics)
	mux.HandleFunc("GET /v1/healthz", a.timed(a.healthz))
	mux.HandleFunc("GET /v1/version", a.cachedHandler("/v1/version"))

	// Legacy aliases: byte-identical pre-/v1 behaviour plus deprecation
	// headers. Handlers that never grew /v1-only behaviour are shared.
	mux.HandleFunc("POST /scans", a.deprecated("/v1/scans", a.timed(a.postScanLegacy)))
	mux.HandleFunc("GET /scans", a.deprecated("/v1/scans", a.timed(a.listScansLegacy)))
	mux.HandleFunc("GET /scans/{id}", a.deprecated("/v1/scans/{id}", a.timed(a.getScanLegacy)))
	mux.HandleFunc("GET /results", a.deprecated("/v1/results", a.timed(a.getResultsLegacy)))
	mux.HandleFunc("GET /channels", a.deprecated("/v1/channels", a.timed(a.getChannels)))
	mux.HandleFunc("GET /providers", a.deprecated("/v1/providers", a.timed(a.getProviders)))
	mux.HandleFunc("GET /events", a.deprecated("/v1/events", a.events))
	mux.HandleFunc("GET /metrics", a.deprecated("/v1/metrics", a.metrics))
	mux.HandleFunc("GET /healthz", a.deprecated("/v1/healthz", a.timed(a.healthz)))
	mux.HandleFunc("GET /version", a.deprecated("/v1/version", a.timed(a.version)))
	return a
}

// timed wraps a handler with the request-scoped timeout.
func (a *api) timed(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), a.cfg.RequestTimeout)
		defer cancel()
		fn(w, r.WithContext(ctx))
	}
}

// deprecated marks a legacy route: the response carries a Deprecation
// header and a successor-version link so clients can discover the /v1
// replacement mechanically. Body bytes are untouched.
func (a *api) deprecated(successor string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Deprecation", "true")
		h.Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		fn(w, r)
	}
}

// apiError is the legacy (pre-/v1) error shape, kept byte-identical for
// old clients.
type apiError struct {
	Error string `json:"error"`
}

// Structured /v1 error codes.
const (
	codeBadRequest = "bad_request"
	codeNotFound   = "not_found"
	codeQueueFull  = "queue_full"
	codeDraining   = "draining"
	codeInternal   = "internal"
	// codeUnknownTarget marks a named scan target (runtime) that does not
	// exist. Unknown providers keep the historical not_found code so every
	// pre-runtime response stays byte-identical.
	codeUnknownTarget = "unknown_target"
)

// errorBody is the inner object of the /v1 error envelope.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the /v1 error shape: {"error":{"code","message"}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// writeJSON writes v with encodeJSON, the one JSON layout of every leaksd
// body. A value that fails to encode leaves the body empty after the
// status line.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if body, err := encodeJSON(v); err == nil {
		_, _ = w.Write(body)
	}
}

// writeError emits the legacy flat error shape.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeErrorV1 emits the structured /v1 envelope.
func writeErrorV1(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// errWriter abstracts the two error shapes so one handler body serves both
// API generations; the code argument is dropped by the legacy writer.
type errWriter func(w http.ResponseWriter, status int, code, format string, args ...any)

func legacyErr(w http.ResponseWriter, status int, _ string, format string, args ...any) {
	writeError(w, status, format, args...)
}

func (a *api) postScanLegacy(w http.ResponseWriter, r *http.Request) { a.postScan(w, r, legacyErr) }
func (a *api) postScanV1(w http.ResponseWriter, r *http.Request)     { a.postScan(w, r, writeErrorV1) }

func (a *api) postScan(w http.ResponseWriter, r *http.Request, fail errWriter) {
	var req ScanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return
	}
	job, err := a.sched.Submit(req)
	switch {
	case err == nil:
	case errors.Is(err, ErrBadRequest):
		fail(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	case errors.Is(err, ErrUnknownTarget):
		fail(w, http.StatusNotFound, codeUnknownTarget, "%v", err)
		return
	case errors.Is(err, ErrQueueFull):
		fail(w, http.StatusTooManyRequests, codeQueueFull, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		fail(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
		return
	default:
		fail(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	code := http.StatusAccepted
	if job.CacheHit {
		code = http.StatusOK
	}
	writeJSON(w, code, job)
}

func (a *api) listScansLegacy(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Scans []Job `json:"scans"`
	}{Scans: a.sched.Jobs()})
}

// jobHasVerdict reports whether any verdict cell of the job's result
// carries the given availability glyph.
func jobHasVerdict(j *Job, verdict string) bool {
	if j.Result == nil {
		return false
	}
	for _, v := range j.Result.Verdicts {
		if v.Availability == verdict {
			return true
		}
	}
	return false
}

func (a *api) getScanLegacy(w http.ResponseWriter, r *http.Request) { a.getScan(w, r, legacyErr) }
func (a *api) getScanV1(w http.ResponseWriter, r *http.Request)     { a.getScan(w, r, writeErrorV1) }

func (a *api) getScan(w http.ResponseWriter, r *http.Request, fail errWriter) {
	id := r.PathValue("id")
	job, ok := a.sched.JobByID(id)
	if !ok {
		fail(w, http.StatusNotFound, codeNotFound, "no such scan %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (a *api) getResultsLegacy(w http.ResponseWriter, r *http.Request) {
	provider := r.URL.Query().Get("provider")
	if provider != "" {
		if _, ok := ProviderByName(provider); !ok {
			writeError(w, http.StatusNotFound, "unknown provider %q (one of %v)", provider, ProviderNames())
			return
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Results []ProviderVerdicts `json:"results"`
	}{Results: a.sched.Results(provider)})
}

func (a *api) getChannels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Channels []ChannelInfo `json:"channels"`
	}{Channels: Channels()})
}

func (a *api) getProviders(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Providers []string `json:"providers"`
	}{Providers: ProviderNames()})
}

func (a *api) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.sched.Metrics().Registry.WritePrometheus(w)
}

func (a *api) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Draining      bool    `json:"draining"`
	}{
		Status:        "ok",
		Version:       a.cfg.Version,
		UptimeSeconds: a.cfg.Now().Sub(a.start).Seconds(),
		Draining:      a.sched.draining.Load(),
	})
}

func (a *api) version(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Version string `json:"version"`
	}{Version: a.cfg.Version})
}

// events serves the SSE stream: every hub event as an `event:`/`data:`
// frame, with periodic comment heartbeats so idle connections stay alive
// through proxies. The stream ends when the client disconnects or the
// scheduler's hub closes the subscription (drain).
func (a *api) events(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	ch, cancel := a.sched.Subscribe()
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": leaksd event stream\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(a.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		}
	}
}
