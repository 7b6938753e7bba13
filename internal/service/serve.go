package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/service/respcache"
	"repro/internal/telemetry"
)

// v1Routes is the versioned HTTP surface in one place: NewHandler registers
// exactly these method/pattern pairs, and the docs/openapi.yaml sync test
// walks them against the spec so code and contract cannot drift.
var v1Routes = []string{
	"POST /v1/scans",
	"GET /v1/scans",
	"GET /v1/scans/{id}",
	"GET /v1/results",
	"GET /v1/matrix",
	"GET /v1/channels",
	"GET /v1/providers",
	"GET /v1/runtimes",
	"GET /v1/engine",
	"GET /v1/events",
	"POST /v1/policies",
	"GET /v1/policies",
	"GET /v1/policies/{id}",
	"DELETE /v1/policies/{id}",
	"POST /v1/policies/{id}/rollout",
	"GET /v1/policies/{id}/rollout",
	"GET /v1/cluster",
	"POST /v1/cluster/scans",
	"POST /v1/cluster/shards",
	"GET /v1/cluster/ping",
	"GET /v1/metrics",
	"GET /v1/healthz",
	"GET /v1/version",
}

// cachedEndpoint is one /v1 read endpoint on the zero-alloc serving path:
// a respcache.Cache of prebuilt responses, an epoch source tying entry
// lifetime to the scheduler's mutation counters, and telemetry children
// resolved once at construction (With on a request path allocates a
// handle, which the cache-hit contract forbids).
type cachedEndpoint struct {
	name  string // ETag prefix and metrics label
	cache *respcache.Cache
	// epoch returns the endpoint's serving epoch and whether caching is
	// sound right now (false while the backing state mutates without
	// epoch bumps — /v1/engine during an in-flight scan).
	epoch func() (epoch uint64, cacheable bool)
	// render produces the response body and the X-Total-Count value
	// (-1 = endpoint has no total) for a canonical query against current
	// state. Bodies are byte-identical to what writeJSON would emit.
	render func(respcache.Query) (body []byte, total int, err error)
	// filtered endpoints honour ?provider/?verdict/?limit/?offset; the
	// rest ignore the query string entirely (pre-cache behaviour, kept).
	filtered bool

	hits, misses *telemetry.Counter
	n200, n304   *telemetry.Counter
	seconds      *telemetry.Histogram
}

// newCachedEndpoint wires one endpoint: cache, epoch source, renderer, and
// pre-resolved metric children.
func (a *api) newCachedEndpoint(name string, filtered bool,
	epoch func() (uint64, bool), render func(respcache.Query) ([]byte, int, error)) *cachedEndpoint {
	met := a.sched.Metrics()
	return &cachedEndpoint{
		name:     name,
		cache:    respcache.NewCache(0),
		epoch:    epoch,
		render:   render,
		filtered: filtered,
		hits:     met.HTTPCacheHits.With(name),
		misses:   met.HTTPCacheMisses.With(name),
		n200:     met.HTTPRequests.With(name, "200"),
		n304:     met.HTTPRequests.With(name, "304"),
		seconds:  met.HTTPRequestSeconds.With(name),
	}
}

// staticEpoch is the epoch source of endpoints whose bodies only change
// across process restarts (/v1/channels, /v1/providers, /v1/version).
func staticEpoch() (uint64, bool) { return 0, true }

// ServeHTTP routes cached GET/HEAD endpoints directly — a map lookup on
// the URL path, bypassing both the mux and the request-timeout wrapper
// (context.WithTimeout allocates; a cache hit needs no deadline) — and
// hands everything else to the mux. The same endpoints stay registered on
// the mux so unsupported methods keep their 405 semantics.
func (a *api) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		if ce, ok := a.endpoints[r.URL.Path]; ok {
			a.serveCached(ce, w, r)
			return
		}
	}
	a.mux.ServeHTTP(w, r)
}

// cachedHandler adapts an endpoint for its mux registration (reached only
// for method-mismatch handling; GET/HEAD short-circuit in ServeHTTP).
func (a *api) cachedHandler(path string) http.HandlerFunc {
	ce := a.endpoints[path]
	return func(w http.ResponseWriter, r *http.Request) { a.serveCached(ce, w, r) }
}

// serveCached is the /v1 read hot loop. The steady-state path — canonical
// query parse, epoch load, cache hit, prebuilt entry write — performs zero
// heap allocations; see BenchmarkV1ResultsHit.
func (a *api) serveCached(ce *cachedEndpoint, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := respcache.Query{Limit: respcache.NoLimit}
	if ce.filtered {
		var err error
		if q, err = respcache.ParseQuery(r.URL.RawQuery); err != nil {
			writeErrorV1(w, http.StatusBadRequest, codeBadRequest, "%v", err)
			return
		}
		if q.Provider != "" {
			if _, known := a.providers[q.Provider]; !known {
				writeErrorV1(w, http.StatusNotFound, codeNotFound,
					"unknown provider %q (one of %v)", q.Provider, ProviderNames())
				return
			}
		}
		if q.Runtime != "" {
			if _, known := a.runtimes[q.Runtime]; !known {
				writeErrorV1(w, http.StatusNotFound, codeUnknownTarget,
					"unknown runtime %q (one of %v)", q.Runtime, RuntimeNames())
				return
			}
		}
	}

	epoch, cacheable := ce.epoch()
	cacheable = cacheable && !a.cfg.DisableResponseCache
	if cacheable {
		if e, ok := ce.cache.Get(epoch, q); ok {
			ce.hits.Inc()
			ce.finish(w, e, r.Header.Get("If-None-Match"), start)
			return
		}
	}
	ce.misses.Inc()
	body, total, err := ce.render(q)
	if err != nil {
		writeErrorV1(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}
	if !cacheable {
		// Uncacheable responses carry no ETag and honour no If-None-Match:
		// the body can change without an epoch bump, so a strong validator
		// would lie.
		h := w.Header()
		if total >= 0 {
			h.Set("X-Total-Count", strconv.Itoa(total))
		}
		h.Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		ce.n200.Inc()
		ce.seconds.Observe(time.Since(start).Seconds())
		return
	}
	e := respcache.NewEntry(http.StatusOK, body, respcache.ETagFor(ce.name, epoch), total)
	ce.cache.Put(epoch, q, e)
	ce.finish(w, e, r.Header.Get("If-None-Match"), start)
}

// finish writes a prebuilt entry and records the serving metrics.
func (ce *cachedEndpoint) finish(w http.ResponseWriter, e *respcache.Entry, ifNoneMatch string, start time.Time) {
	if e.Serve(w, ifNoneMatch) == http.StatusNotModified {
		ce.n304.Inc()
	} else {
		ce.n200.Inc()
	}
	ce.seconds.Observe(time.Since(start).Seconds())
}

// encBufPool recycles cold-render encode buffers: a miss borrows a buffer,
// encodes, copies the bytes out for the cache entry, and returns it — the
// render.go pooling pattern from internal/pseudofs applied to the API
// layer.
var encBufPool = sync.Pool{New: func() any { return new(encBuf) }}

// encBuf holds one render's compact encoding and its indented layout.
type encBuf struct {
	compact  bytes.Buffer
	indented []byte
}

// encodeJSON renders v as every leaksd JSON body is written — the bytes a
// json.Encoder indenting by two spaces gives, trailing newline included —
// into a standalone byte slice a cache entry can own. The encoder writes
// compact, HTML-escaped JSON and appendIndent lays it out in one pass,
// without json.Indent's validating re-scan of every byte.
func encodeJSON(v any) ([]byte, error) {
	buf := encBufPool.Get().(*encBuf)
	defer func() {
		buf.compact.Reset()
		encBufPool.Put(buf)
	}()
	if err := json.NewEncoder(&buf.compact).Encode(v); err != nil {
		return nil, err
	}
	buf.indented = appendIndent(buf.indented[:0], buf.compact.Bytes())
	return append([]byte(nil), buf.indented...), nil
}

// indentSpaces backs the two-space indent of one line; deeper lines take
// it in several appends.
const indentSpaces = "                                                                "

// appendIndent appends src, which must be compact JSON as encoding/json
// writes it (no whitespace outside strings; Marshaler and RawMessage
// output is compacted by the encoder), laid out the way json.Indent(dst,
// src, "", "  ") lays it out: a newline and the indent after each opening
// bracket and comma and before each closing bracket, a space after each
// colon, and empty objects and arrays left as {} and []. Input is not
// validated; strings are copied verbatim, with the byte after each
// backslash skipped over so an escaped quote does not end one.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	run := 0 // start of the bytes not yet copied to dst
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			for i++; i < len(src) && src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				i++
				continue
			}
			depth++
			dst = appendNewline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ',':
			dst = appendNewline(append(dst, src[run:i+1]...), depth)
			run = i + 1
		case ':':
			dst = append(append(dst, src[run:i+1]...), ' ')
			run = i + 1
		case '}', ']':
			depth--
			dst = appendNewline(append(dst, src[run:i]...), depth)
			run = i
		}
	}
	return append(dst, src[run:]...)
}

// appendNewline appends a newline and depth levels of indent.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; n -= len(indentSpaces) {
		dst = append(dst, indentSpaces[:min(n, len(indentSpaces))]...)
	}
	return dst
}

// renderScans is the cold render behind GET /v1/scans: filter, then
// window, then encode. Filters apply before pagination; the total is the
// post-filter count so clients can window through exactly the matching
// set. Only the page leaves the scheduler.
func (a *api) renderScans(q respcache.Query) ([]byte, int, error) {
	page, total := a.sched.JobsPage(func(j *Job) bool {
		return (q.Provider == "" || j.Request.Provider == q.Provider) &&
			(q.Runtime == "" || j.Request.Runtime == q.Runtime) &&
			(q.Verdict == "" || jobHasVerdict(j, q.Verdict))
	}, q.Offset, q.Limit)
	body, err := encodeJSON(struct {
		Scans []Job `json:"scans"`
	}{Scans: page})
	return body, total, err
}

// renderResults is the cold render behind GET /v1/results. ?verdict=
// narrows each provider's cells to one availability and drops providers
// left with none; ?runtime= selects a runtime target's row (runtime
// targets land in the latest-verdict map under their own names when
// matrix or runtime-inspect scans run); pagination windows over the
// provider entries.
func (a *api) renderResults(q respcache.Query) ([]byte, int, error) {
	results := a.sched.Results(q.Provider)
	if q.Runtime != "" {
		filtered := results[:0:0]
		for _, pv := range results {
			if pv.Provider == q.Runtime {
				filtered = append(filtered, pv)
			}
		}
		results = filtered
	}
	if q.Verdict != "" {
		filtered := results[:0:0]
		for _, pv := range results {
			var cells []Verdict
			for _, v := range pv.Verdicts {
				if v.Availability == q.Verdict {
					cells = append(cells, v)
				}
			}
			if len(cells) == 0 {
				continue
			}
			pv.Verdicts = cells
			filtered = append(filtered, pv)
		}
		results = filtered
	}
	lo, hi := q.Window(len(results))
	body, err := encodeJSON(struct {
		Results []ProviderVerdicts `json:"results"`
	}{Results: results[lo:hi]})
	return body, len(results), err
}

func (a *api) renderChannels(respcache.Query) ([]byte, int, error) {
	channels := Channels()
	body, err := encodeJSON(struct {
		Channels []ChannelInfo `json:"channels"`
	}{Channels: channels})
	return body, len(channels), err
}

func (a *api) renderProviders(respcache.Query) ([]byte, int, error) {
	providers := ProviderNames()
	body, err := encodeJSON(struct {
		Providers []string `json:"providers"`
	}{Providers: providers})
	return body, len(providers), err
}

func (a *api) renderRuntimes(respcache.Query) ([]byte, int, error) {
	runtimes := RuntimeNames()
	body, err := encodeJSON(struct {
		Runtimes []string `json:"runtimes"`
	}{Runtimes: runtimes})
	return body, len(runtimes), err
}

// renderMatrix is the cold render behind GET /v1/matrix: the latest
// verdicts of every matrix target (clouds then runtimes, canonical column
// order), shaped like /v1/results but restricted to the matrix column set.
// Targets without verdicts yet are omitted — the matrix fills in as
// KindMatrix (or runtime-inspect) scans complete. ?provider= / ?runtime=
// narrow to one column; ?verdict= narrows cells; pagination windows over
// the target entries.
func (a *api) renderMatrix(q respcache.Query) ([]byte, int, error) {
	var entries []ProviderVerdicts
	for _, name := range MatrixTargetNames() {
		if q.Provider != "" && name != q.Provider {
			continue
		}
		if q.Runtime != "" && name != q.Runtime {
			continue
		}
		rows := a.sched.Results(name)
		for _, pv := range rows {
			if q.Verdict != "" {
				var cells []Verdict
				for _, v := range pv.Verdicts {
					if v.Availability == q.Verdict {
						cells = append(cells, v)
					}
				}
				if len(cells) == 0 {
					continue
				}
				pv.Verdicts = cells
			}
			entries = append(entries, pv)
		}
	}
	lo, hi := q.Window(len(entries))
	body, err := encodeJSON(struct {
		Matrix []ProviderVerdicts `json:"matrix"`
	}{Matrix: entries[lo:hi]})
	return body, len(entries), err
}

// renderEngine snapshots the incremental engine's aggregate cache and
// epoch statistics — session-pool effectiveness plus the summed counters
// of every live session engine.
func (a *api) renderEngine(respcache.Query) ([]byte, int, error) {
	body, err := encodeJSON(a.sched.EngineInfo())
	return body, -1, err
}

func (a *api) renderVersion(respcache.Query) ([]byte, int, error) {
	body, err := encodeJSON(struct {
		Version string `json:"version"`
	}{Version: a.cfg.Version})
	return body, -1, err
}
