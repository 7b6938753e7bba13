package service

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/service/respcache"
)

// renderScansOracle is the implementation renderScans replaced: copy the
// whole job history, filter it, then window. The page-only render must
// match it byte for byte.
func renderScansOracle(a *api, q respcache.Query) ([]byte, int, error) {
	jobs := a.sched.Jobs()
	filtered := jobs[:0:0]
	for _, j := range jobs {
		if q.Provider != "" && j.Request.Provider != q.Provider {
			continue
		}
		if q.Runtime != "" && j.Request.Runtime != q.Runtime {
			continue
		}
		if q.Verdict != "" && !jobHasVerdict(&j, q.Verdict) {
			continue
		}
		filtered = append(filtered, j)
	}
	lo, hi := q.Window(len(filtered))
	body, err := encodeJSON(struct {
		Scans []Job `json:"scans"`
	}{Scans: filtered[lo:hi]})
	return body, len(filtered), err
}

// historyAPI returns an api over an unstarted scheduler holding n jobs
// that cycle through providers, runtimes, verdicts and job states.
func historyAPI(n int) *api {
	s := New(Config{}, nil)
	providers := []string{"local", "cc1", "cc2", "cc3"}
	runtimes := []string{"", "", "gvisor", "kata"}
	glyphs := []string{"●", "◐", "○"}
	for i := range n {
		req := ScanRequest{Kind: KindInspect, Provider: providers[i%len(providers)], Runtime: runtimes[i%3%len(runtimes)], Seed: int64(i)}
		job := s.newJob(req, "")
		switch i % 5 {
		case 0: // still queued
		case 1:
			job.Status = StatusFailed
			job.Error = "boom"
		default:
			job.Status = StatusDone
			job.Result = &ScanResult{Request: req, Rendered: fmt.Sprint("scan ", i), Verdicts: []Verdict{
				{Provider: req.Provider, Channel: "/proc/meminfo", Availability: glyphs[i%len(glyphs)]},
				{Provider: req.Provider, Channel: "/proc/uptime", Availability: glyphs[(i/7)%len(glyphs)]},
			}}
		}
	}
	return &api{sched: s}
}

func TestRenderScansMatchesFullCopyOracle(t *testing.T) {
	for _, n := range []int{0, 1, 37} {
		a := historyAPI(n)
		for _, provider := range []string{"", "cc1", "cc9"} {
			for _, runtime := range []string{"", "gvisor"} {
				for _, verdict := range []string{"", "●", "○"} {
					for _, w := range []struct{ limit, offset int }{
						{respcache.NoLimit, 0}, {0, 0}, {1, 0}, {10, 0}, {5, 3},
						{respcache.NoLimit, 4}, {3, n - 1}, {10, n}, {2, n + 5},
						{math.MaxInt, 2}, {1, math.MaxInt},
					} {
						q := respcache.Query{Provider: provider, Runtime: runtime, Verdict: verdict, Limit: w.limit, Offset: max(w.offset, 0)}
						got, gotTotal, err := a.renderScans(q)
						if err != nil {
							t.Fatal(err)
						}
						want, wantTotal, _ := renderScansOracle(a, q)
						if gotTotal != wantTotal || !bytes.Equal(got, want) {
							t.Fatalf("n=%d %+v: total %d, want %d\ngot  %s\nwant %s", n, q, gotTotal, wantTotal, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRenderScansAllocsIndependentOfHistory: serving one page allocates
// the same at 1,000 and 10,000 retained jobs.
func TestRenderScansAllocsIndependentOfHistory(t *testing.T) {
	if raceEnabled {
		t.Skip("the encode buffer pool drops buffers at random under the race detector")
	}
	q := respcache.Query{Verdict: "●", Limit: 10}
	allocs := func(n int) float64 {
		a := historyAPI(n)
		return testing.AllocsPerRun(20, func() {
			if _, _, err := a.renderScans(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small {
		t.Fatalf("a page allocates %.0f times at 10,000 jobs, %.0f at 1,000", large, small)
	}
}
