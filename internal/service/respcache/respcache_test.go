package respcache

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestParseQueryCanonicalization: equivalent raw spellings parse to one
// Query value — the property that makes Query usable as a cache key.
func TestParseQueryCanonicalization(t *testing.T) {
	groups := [][]string{
		// Absent, empty, and unknown-only spellings of "no parameters".
		{"", "limit=", "offset=", "provider=", "verdict=", "foo=bar", "offset=0", "limit=&offset=0"},
		// Reordered and duplicated parameters; first duplicate wins.
		{"provider=cc1&limit=50", "limit=50&provider=cc1", "limit=50&provider=cc1&limit=7", "limit=50&provider=cc1&foo=1"},
		// ASCII verdict aliases fold onto the glyphs, escaped or not.
		{"verdict=available", "verdict=%E2%97%8F", "verdict=" + "●"},
		{"verdict=partial", "verdict=" + "◐"},
		{"verdict=unavailable", "verdict=" + "○"},
		// offset=0 is the default spelled out.
		{"limit=2&offset=0", "offset=0&limit=2", "limit=2"},
	}
	for _, g := range groups {
		want, err := ParseQuery(g[0])
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", g[0], err)
		}
		for _, raw := range g[1:] {
			got, err := ParseQuery(raw)
			if err != nil {
				t.Fatalf("ParseQuery(%q): %v", raw, err)
			}
			if got != want {
				t.Errorf("ParseQuery(%q) = %+v, want %+v (canonical with %q)", raw, got, want, g[0])
			}
		}
	}

	// Distinct questions must stay distinct.
	distinct := []string{"", "limit=0", "limit=1", "offset=1", "provider=cc1", "verdict=available", "provider=cc1&verdict=available"}
	seen := map[Query]string{}
	for _, raw := range distinct {
		q, err := ParseQuery(raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", raw, err)
		}
		if prev, dup := seen[q]; dup {
			t.Errorf("ParseQuery(%q) collides with ParseQuery(%q): %+v", raw, prev, q)
		}
		seen[q] = raw
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, raw := range []string{"limit=-1", "limit=x", "limit=1.5", "offset=-2", "offset=x"} {
		_, err := ParseQuery(raw)
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("ParseQuery(%q) err = %v, want ParamError", raw, err)
		}
	}
	_, err := ParseQuery("verdict=sideways")
	var ve *VerdictError
	if !errors.As(err, &ve) {
		t.Errorf("ParseQuery(verdict=sideways) err = %v, want VerdictError", err)
	}
	// The escaped fallback reports the same errors.
	if _, err := ParseQuery("limit=%2D1"); err == nil {
		t.Error("escaped negative limit accepted")
	}
}

// TestParseQueryZeroAlloc: the fast path — what every steady-state /v1 hit
// takes — must not allocate.
func TestParseQueryZeroAlloc(t *testing.T) {
	raws := []string{"", "provider=cc1&verdict=available&limit=50&offset=3", "limit=2&offset=0&unknown=x"}
	for _, raw := range raws {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ParseQuery(raw); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ParseQuery(%q): %.1f allocs/op, want 0", raw, allocs)
		}
	}
}

func TestQueryWindow(t *testing.T) {
	cases := []struct {
		q         Query
		n, lo, hi int
	}{
		{Query{Limit: NoLimit}, 5, 0, 5},
		{Query{Limit: 2}, 5, 0, 2},
		{Query{Limit: 2, Offset: 4}, 5, 4, 5},
		{Query{Limit: 0}, 5, 0, 0},
		{Query{Limit: NoLimit, Offset: 5}, 5, 5, 5},
		{Query{Limit: NoLimit, Offset: 99}, 5, 5, 5},
		{Query{Limit: math.MaxInt, Offset: 2}, 5, 2, 5},
	}
	for _, tc := range cases {
		lo, hi := tc.q.Window(tc.n)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%+v.Window(%d) = [%d,%d), want [%d,%d)", tc.q, tc.n, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestCanonicalString(t *testing.T) {
	q, err := ParseQuery("offset=3&verdict=available&provider=cc1&limit=50")
	if err != nil {
		t.Fatal(err)
	}
	want := "provider=cc1&verdict=●&limit=50&offset=3"
	if got := q.Canonical(); got != want {
		t.Errorf("Canonical() = %q, want %q", got, want)
	}
	if got := (Query{Limit: NoLimit}).Canonical(); got != "" {
		t.Errorf("zero query Canonical() = %q, want empty", got)
	}
}

// TestRuntimeParameter: the runtime= filter (the matrix column family
// added alongside the providers) canonicalizes like provider= — absent and
// empty spellings collapse to the zero query, the canonical string keeps
// historical byte-identity when runtime is unset, and the fast path stays
// allocation-free.
func TestRuntimeParameter(t *testing.T) {
	for _, raw := range []string{"runtime=", "runtime=&foo=1", ""} {
		q, err := ParseQuery(raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", raw, err)
		}
		if q != (Query{Limit: NoLimit}) {
			t.Errorf("ParseQuery(%q) = %+v, want the zero query", raw, q)
		}
	}
	fast, err := ParseQuery("runtime=gvisor&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	escaped, err := ParseQuery("runtime=%67visor&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	if fast != escaped || fast.Runtime != "gvisor" {
		t.Fatalf("fast %+v vs escaped %+v", fast, escaped)
	}
	// runtime and provider are distinct dimensions.
	p, _ := ParseQuery("provider=gvisor")
	r, _ := ParseQuery("runtime=gvisor")
	if p == r {
		t.Fatal("provider= and runtime= must not collide as cache keys")
	}
	// Canonical emits runtime between provider and verdict; an unset
	// runtime leaves historical canonical strings byte-identical.
	q, err := ParseQuery("offset=3&verdict=available&runtime=kata&provider=cc1&limit=50")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q.Canonical(), "provider=cc1&runtime=kata&verdict=●&limit=50&offset=3"; got != want {
		t.Errorf("Canonical() = %q, want %q", got, want)
	}
	old, _ := ParseQuery("provider=cc1&limit=50")
	if got, want := old.Canonical(), "provider=cc1&limit=50"; got != want {
		t.Errorf("historical Canonical() = %q, want %q", got, want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseQuery("runtime=kata&verdict=available&limit=50"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("runtime fast path: %.1f allocs/op, want 0", allocs)
	}
}

// TestCacheEpochInvalidation: entries live for exactly one epoch; a bump
// makes the old world unreachable and a raced old-epoch Put is dropped.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache(8)
	q := Query{Limit: NoLimit}
	e1 := NewEntry(200, []byte("epoch-1"), ETagFor("results", 1), 3)
	c.Put(1, q, e1)
	if got, ok := c.Get(1, q); !ok || string(got.Body) != "epoch-1" {
		t.Fatalf("Get(1) = %v, %v", got, ok)
	}
	if _, ok := c.Get(2, q); ok {
		t.Fatal("Get at a newer epoch served an old entry")
	}
	e2 := NewEntry(200, []byte("epoch-2"), ETagFor("results", 2), 3)
	c.Put(2, q, e2)
	if _, ok := c.Get(1, q); ok {
		t.Fatal("old epoch still served after bump")
	}
	if got, ok := c.Get(2, q); !ok || string(got.Body) != "epoch-2" {
		t.Fatalf("Get(2) = %v, %v", got, ok)
	}
	// A render that raced the bump must not resurrect stale bytes.
	c.Put(1, q, e1)
	if got, _ := c.Get(2, q); string(got.Body) != "epoch-2" {
		t.Fatal("stale-epoch Put overwrote the live entry")
	}
	if c.Epoch() != 2 || c.Len() != 1 {
		t.Fatalf("epoch %d len %d, want 2 / 1", c.Epoch(), c.Len())
	}
}

func TestCacheCapBound(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 10; i++ {
		c.Put(1, Query{Limit: i}, NewEntry(200, nil, "", -1))
	}
	if c.Len() != 2 {
		t.Fatalf("cache grew to %d entries past its cap of 2", c.Len())
	}
}

func TestEntryServe(t *testing.T) {
	e := NewEntry(200, []byte(`{"ok":true}`), ETagFor("results", 7), 3)

	rec := httptest.NewRecorder()
	if code := e.Serve(rec, ""); code != 200 {
		t.Fatalf("Serve = %d, want 200", code)
	}
	if rec.Body.String() != `{"ok":true}` {
		t.Errorf("body %q", rec.Body.String())
	}
	if got := rec.Header().Get("ETag"); got != `"results-e7"` {
		t.Errorf("ETag %q", got)
	}
	if got := rec.Header().Get("X-Total-Count"); got != "3" {
		t.Errorf("X-Total-Count %q", got)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type %q", got)
	}

	// Revalidation: matching If-None-Match answers 304 with no body.
	rec = httptest.NewRecorder()
	if code := e.Serve(rec, `"results-e7"`); code != http.StatusNotModified {
		t.Fatalf("revalidated Serve = %d, want 304", code)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("304 carried a body: %q", rec.Body.String())
	}
	if got := rec.Header().Get("ETag"); got != `"results-e7"` {
		t.Errorf("304 ETag %q", got)
	}
	rec = httptest.NewRecorder()
	if code := e.Serve(rec, "*"); code != http.StatusNotModified {
		t.Fatalf(`Serve with If-None-Match "*" = %d, want 304`, code)
	}
	// A stale tag gets the full body.
	rec = httptest.NewRecorder()
	if code := e.Serve(rec, `"results-e6"`); code != 200 {
		t.Fatalf("stale-tag Serve = %d, want 200", code)
	}

	// Entries without a total omit the header.
	rec = httptest.NewRecorder()
	NewEntry(200, []byte("{}"), `"engine-e1"`, -1).Serve(rec, "")
	if _, ok := rec.Header()["X-Total-Count"]; ok {
		t.Error("total-less entry set X-Total-Count")
	}
}

// TestServeZeroAlloc: a cache hit — Get plus Serve against a warm header
// map — is allocation-free.
func TestServeZeroAlloc(t *testing.T) {
	c := NewCache(0)
	q, _ := ParseQuery("provider=cc1&limit=50")
	c.Put(3, q, NewEntry(200, []byte(`{"results":[]}`), ETagFor("results", 3), 0))
	w := &nopWriter{h: make(http.Header)}
	serve := func(inm string) {
		e, ok := c.Get(3, q)
		if !ok {
			t.Fatal("miss")
		}
		e.Serve(w, inm)
	}
	serve("") // warm the header map
	if allocs := testing.AllocsPerRun(200, func() { serve("") }); allocs != 0 {
		t.Errorf("hit path: %.1f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { serve(`"results-e3"`) }); allocs != 0 {
		t.Errorf("304 path: %.1f allocs/op, want 0", allocs)
	}
}

// nopWriter is a reusable ResponseWriter: header map persists across
// requests the way a benchmark's would.
type nopWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *nopWriter) Header() http.Header  { return w.h }
func (w *nopWriter) WriteHeader(code int) { w.code = code }
func (w *nopWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
