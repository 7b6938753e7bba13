package respcache

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// NoLimit is Query.Limit's "parameter absent" sentinel: the whole
// collection is returned. Limit 0 is distinct — a valid count-only probe.
const NoLimit = -1

// Query is the canonical filter+pagination parameter set of the /v1 read
// endpoints. Two raw query strings that ask the same question parse to the
// same Query value (reordered parameters, absent-vs-default spellings,
// unknown parameters, duplicate keys), which is what makes it usable as a
// cache key: the struct is comparable, so a map lookup on it allocates
// nothing.
type Query struct {
	// Provider restricts to one provider ("" = no filter). Whether the
	// name is a known profile is the caller's business, not the parser's.
	Provider string
	// Runtime restricts to one container-runtime target ("" = no filter) —
	// the matrix column family added alongside the providers. Like
	// Provider, name validation is the caller's business.
	Runtime string
	// Verdict is the canonical availability glyph ("" = no filter);
	// ParseQuery folds the ASCII aliases onto the glyphs.
	Verdict string
	// Limit is the window size (NoLimit = absent, 0 = count-only probe).
	Limit int
	// Offset is the window start (0 = absent — the two spellings are one
	// question, so they canonicalize to one key).
	Offset int
}

// ParamError reports a malformed limit/offset value; the API layer renders
// it as a 400 with the parameter name and raw value.
type ParamError struct {
	Param string // "limit" or "offset"
	Value string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("invalid %s %q: non-negative integer required", e.Param, e.Value)
}

// VerdictError reports an unrecognized verdict filter value.
type VerdictError struct {
	Value string
}

func (e *VerdictError) Error() string {
	return fmt.Sprintf("invalid verdict %q (one of available, partial, unavailable)", e.Value)
}

// CanonicalVerdict folds a verdict spelling onto its canonical availability
// glyph: the glyphs themselves or their ASCII names. Empty means "no
// filter"; unknown spellings report ok == false.
func CanonicalVerdict(s string) (string, bool) {
	switch s {
	case "":
		return "", true
	case "available", core.Available.String():
		return core.Available.String(), true
	case "partial", core.PartiallyAvailable.String():
		return core.PartiallyAvailable.String(), true
	case "unavailable", core.Unavailable.String():
		return core.Unavailable.String(), true
	}
	return "", false
}

// ParseQuery canonicalizes a raw URL query into a Query. On well-formed
// input (no percent-escapes, no '+') it allocates nothing: parameter names
// and values are substrings of raw, numbers parse in place, and the first
// occurrence of a duplicated key wins — the same answer url.Values.Get
// would give. Escaped input takes a url.ParseQuery fallback that matches
// the pre-cache handlers' r.URL.Query() behaviour bit for bit (parse
// errors are ignored, surviving pairs are used).
func ParseQuery(raw string) (Query, error) {
	q := Query{Limit: NoLimit}
	if strings.IndexByte(raw, '%') >= 0 || strings.IndexByte(raw, '+') >= 0 {
		return parseEscaped(raw)
	}
	var seenProv, seenRun, seenVerd, seenLimit, seenOffset bool
	for len(raw) > 0 {
		seg := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			seg, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		key, val := seg, ""
		if i := strings.IndexByte(seg, '='); i >= 0 {
			key, val = seg[:i], seg[i+1:]
		}
		if val == "" {
			continue // absent and empty spell the same default
		}
		switch key {
		case "provider":
			if !seenProv {
				q.Provider, seenProv = val, true
			}
		case "runtime":
			if !seenRun {
				q.Runtime, seenRun = val, true
			}
		case "verdict":
			if !seenVerd {
				v, ok := CanonicalVerdict(val)
				if !ok {
					return q, &VerdictError{Value: val}
				}
				q.Verdict, seenVerd = v, true
			}
		case "limit":
			if !seenLimit {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return q, &ParamError{Param: "limit", Value: val}
				}
				q.Limit, seenLimit = n, true
			}
		case "offset":
			if !seenOffset {
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return q, &ParamError{Param: "offset", Value: val}
				}
				q.Offset, seenOffset = n, true
			}
		}
	}
	return q, nil
}

// parseEscaped is the allocating fallback for percent-escaped queries.
func parseEscaped(raw string) (Query, error) {
	q := Query{Limit: NoLimit}
	vals, _ := url.ParseQuery(raw) // errors ignored, like r.URL.Query()
	q.Provider = vals.Get("provider")
	q.Runtime = vals.Get("runtime")
	if s := vals.Get("verdict"); s != "" {
		v, ok := CanonicalVerdict(s)
		if !ok {
			return q, &VerdictError{Value: s}
		}
		q.Verdict = v
	}
	if s := vals.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return q, &ParamError{Param: "limit", Value: s}
		}
		q.Limit = n
	}
	if s := vals.Get("offset"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return q, &ParamError{Param: "offset", Value: s}
		}
		q.Offset = n
	}
	return q, nil
}

// Window maps the pagination pair onto a slice of length n, returning the
// half-open [lo, hi) index range. Offsets past the end yield an empty
// window rather than an error — a stable contract for pollers walking a
// list that can shrink between requests.
func (q Query) Window(n int) (lo, hi int) {
	if q.Offset >= n {
		return n, n
	}
	lo = q.Offset
	hi = n
	if q.Limit >= 0 && q.Limit < n-lo { // lo+Limit could overflow
		hi = lo + q.Limit
	}
	return lo, hi
}

// Canonical renders the canonical string form — defaults omitted, fields in
// fixed order — used wherever a query's identity feeds a hash (the scan
// dedup key in internal/service shares this spelling). Allocates; cache
// lookups use the Query value itself instead.
func (q Query) Canonical() string {
	var b strings.Builder
	sep := func() {
		if b.Len() > 0 {
			b.WriteByte('&')
		}
	}
	if q.Provider != "" {
		sep()
		b.WriteString("provider=")
		b.WriteString(q.Provider)
	}
	if q.Runtime != "" {
		sep()
		b.WriteString("runtime=")
		b.WriteString(q.Runtime)
	}
	if q.Verdict != "" {
		sep()
		b.WriteString("verdict=")
		b.WriteString(q.Verdict)
	}
	if q.Limit != NoLimit {
		sep()
		b.WriteString("limit=")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	if q.Offset != 0 {
		sep()
		b.WriteString("offset=")
		b.WriteString(strconv.Itoa(q.Offset))
	}
	return b.String()
}

// clone deep-copies the string fields so a stored key never pins a request
// URL's backing array.
func (q Query) clone() Query {
	q.Provider = strings.Clone(q.Provider)
	q.Runtime = strings.Clone(q.Runtime)
	q.Verdict = strings.Clone(q.Verdict)
	return q
}

// ETagFor derives the strong entity tag for an endpoint at an epoch. The
// epoch snapshot is the whole identity: the body cannot change without the
// epoch bumping (the engine invariant), so no content hash is needed and
// revalidation costs nothing.
func ETagFor(endpoint string, epoch uint64) string {
	return `"` + endpoint + "-e" + strconv.FormatUint(epoch, 10) + `"`
}

// Pre-canonicalized header keys (textproto canonical form), assigned
// directly into the response header map so a cache hit never allocates.
const (
	headerETag       = "Etag"
	headerTotalCount = "X-Total-Count"
	headerCT         = "Content-Type"
)

var jsonCT = []string{"application/json"}

// Entry is one fully rendered response. Everything a hit needs — body
// bytes, ETag, header value slices — is built once at render time.
type Entry struct {
	Status int
	Body   []byte
	ETag   string

	etagVal  []string
	totalVal []string // nil = endpoint has no X-Total-Count
}

// NewEntry builds a prebuilt response. total < 0 omits X-Total-Count.
func NewEntry(status int, body []byte, etag string, total int) *Entry {
	e := &Entry{Status: status, Body: body, ETag: etag, etagVal: []string{etag}}
	if total >= 0 {
		e.totalVal = []string{strconv.Itoa(total)}
	}
	return e
}

// Serve writes the entry: a 304 with the ETag when ifNoneMatch revalidates
// (exact strong match or "*"), the prebuilt body otherwise. Returns the
// status written. Zero allocations either way.
func (e *Entry) Serve(w http.ResponseWriter, ifNoneMatch string) int {
	h := w.Header()
	h[headerETag] = e.etagVal
	if e.totalVal != nil {
		h[headerTotalCount] = e.totalVal
	}
	if ifNoneMatch != "" && (ifNoneMatch == e.ETag || ifNoneMatch == "*") {
		w.WriteHeader(http.StatusNotModified)
		return http.StatusNotModified
	}
	h[headerCT] = jsonCT
	w.WriteHeader(e.Status)
	_, _ = w.Write(e.Body)
	return e.Status
}

// DefaultCap bounds a cache's entry count. The canonical query space an
// honest client population produces is tiny (providers × verdicts × a few
// windows); the bound exists so adversarial limit/offset spam cannot grow
// the map without end. Beyond it, responses are rendered and served but
// not retained.
const DefaultCap = 512

// Cache holds the prebuilt entries of one endpoint for exactly one epoch.
// Storing under a newer epoch drops every older entry — epoch bumps are
// the only invalidation, mirroring the engine's immutability contract.
type Cache struct {
	cap int

	mu      sync.RWMutex
	epoch   uint64
	entries map[Query]*Entry
}

// NewCache builds a cache bounded at cap entries (DefaultCap if <= 0).
func NewCache(cap int) *Cache {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Cache{cap: cap, entries: make(map[Query]*Entry)}
}

// Get returns the entry for q rendered at epoch. A cache whose entries
// belong to a different epoch misses — the caller re-renders and Put
// starts the new epoch's population. Allocation-free.
func (c *Cache) Get(epoch uint64, q Query) (*Entry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.epoch != epoch {
		return nil, false
	}
	e, ok := c.entries[q]
	return e, ok
}

// Put stores an entry rendered at epoch. An epoch newer than the cache's
// resets it (the old world just became unreachable); an epoch older than
// the cache's is dropped — a render that raced a bump must not resurrect
// stale bytes. The key's strings are cloned so stored keys never pin
// request buffers.
func (c *Cache) Put(epoch uint64, q Query, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case epoch < c.epoch:
		return
	case epoch > c.epoch:
		c.epoch = epoch
		clear(c.entries)
	}
	if len(c.entries) >= c.cap {
		return
	}
	c.entries[q.clone()] = e
}

// Len reports the live entry count (tests and metrics).
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Epoch reports the epoch the cache currently holds entries for.
func (c *Cache) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}
