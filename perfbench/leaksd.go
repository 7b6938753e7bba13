package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/texttable"
)

// leaksd-mix: one operation is a POST /v1/scans inspect request for a
// (target, seed) pair the daemon has never seen, through the in-process
// handler; the client waits for the job's scan_done event, then sends a
// round of leaksload's default endpoint mix in a seeded order. Scans and
// reads are timed apart. The daemon is never restarted and its job history
// never pruned, so reads late in a run see every job of the run.

const (
	leaksdWarmScans = 40   // set-up scans: fill the 32-world pool and the 16-session LRU
	leaksdOpsPer10  = 1800 // scans in a 10-second run
	leaksdSample    = 8    // one scan in this many is replayed outside the daemon
)

// leaksdMix is the read mix: leaksload's default mix
// (results=6,scans=2,channels=1,providers=1,engine=1,version=1) plus
// /v1/matrix, which that mix predates, at the weight of the other single
// views (assumed). After every scan the client reads one round of it:
// each endpoint as many times as its weight, in a seeded order. One round
// per scan is assumed too; no source gives a ratio of reads to scans.
// Reads go to the bare paths, as leaksload's do, except /v1/scans: a bare
// path lists the whole job history, so it reads the page the README's
// example asks for.
var leaksdMix = []struct {
	endpoint, query string
	weight          int
}{
	{"results", "", 6},
	{"scans", "?limit=10&offset=0&verdict=available", 2},
	{"channels", "", 1},
	{"providers", "", 1},
	{"engine", "", 1},
	{"version", "", 1},
	{"matrix", "", 1},
}

// leaksdEndpoints are the read endpoints whose cold renders are reported,
// with their metric label.
var leaksdEndpoints = []string{"results", "scans", "matrix", "engine", "channels"}

type leaksdTarget struct {
	name    string
	runtime bool
}

type leaksdScan struct {
	target leaksdTarget
	seed   int64
	jobID  string
	sample bool
	getsOK bool
	// traced scans replay their (target, seed) outside the daemon
	replayed string
}

type leaksdBench struct {
	targets []leaksdTarget
	pick    *stream
	gets    *stream
	sample  *stream
	seedAt  int64

	met     *service.Metrics
	sched   *service.Scheduler
	handler http.Handler
	events  <-chan service.Event
	unsub   func()

	scans   []leaksdScan
	readMs  []float64
	etags   map[string]string
	inmSent int

	// counts at the start of the timed phase
	base leaksdCounters
	// traced-scan samples (ms)
	postMs, runMs []float64
	renderMs      map[string][]float64
	missCtr       map[string]*telemetry.Counter
}

func newLeaksd(o options) workload {
	var targets []leaksdTarget
	for _, p := range service.ProviderNames() {
		targets = append(targets, leaksdTarget{name: p})
	}
	for _, r := range service.RuntimeNames() {
		targets = append(targets, leaksdTarget{name: r, runtime: true})
	}
	base := newStream(o.seed, "leaksd/seed-base")
	return &leaksdBench{
		targets: targets,
		pick:    newStream(o.seed, "leaksd/targets"),
		gets:    newStream(o.seed, "leaksd/gets"),
		sample:  newStream(o.seed, "leaksd/sample"),
		// Scan seeds count up from a seeded base, so no (target, seed)
		// pair repeats within a run.
		seedAt:   1_000_000 + int64(base.intn(1<<30))*1000,
		etags:    make(map[string]string),
		renderMs: make(map[string][]float64),
	}
}

func (b *leaksdBench) ops(seconds int) int { return max(20, leaksdOpsPer10*seconds/10) }

func (b *leaksdBench) setup() error {
	b.met = service.NewMetrics(nil)
	b.sched = service.New(service.Config{}, b.met)
	b.sched.Start()
	b.handler = service.NewHandler(service.APIConfig{Scheduler: b.sched})
	b.events, b.unsub = b.sched.Subscribe()
	b.missCtr = make(map[string]*telemetry.Counter)
	for _, e := range leaksdEndpoints {
		b.missCtr[e] = b.met.HTTPCacheMisses.With(e)
	}
	for i := 0; i < leaksdWarmScans; i++ {
		if _, _, err := b.scan(b.next()); err != nil {
			return fmt.Errorf("warm-up scan %d: %w", i, err)
		}
	}
	b.base = b.counters()
	return nil
}

// next draws the next scan's target and a never-used seed.
func (b *leaksdBench) next() leaksdScan {
	b.seedAt++
	return leaksdScan{target: b.targets[b.pick.intn(len(b.targets))], seed: b.seedAt}
}

func (s leaksdScan) body() string {
	key := "provider"
	if s.target.runtime {
		key = "runtime"
	}
	return fmt.Sprintf(`{"kind":"inspect","%s":%q,"seed":%d}`, key, s.target.name, s.seed)
}

// scan submits one scan and waits for its scan_done event. It returns the
// job id and the POST handler's own time.
func (b *leaksdBench) scan(s leaksdScan) (string, time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/scans", strings.NewReader(s.body()))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	b.handler.ServeHTTP(rec, req)
	post := time.Since(t0)
	if rec.Code != http.StatusAccepted {
		return "", post, fmt.Errorf("POST /v1/scans: %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID == "" {
		return "", post, fmt.Errorf("POST /v1/scans: no job id in %q", rec.Body.String())
	}
	for ev := range b.events {
		if ev.JobID != job.ID {
			continue
		}
		switch ev.Type {
		case service.EventScanDone:
			return job.ID, post, nil
		case service.EventScanFailed:
			return job.ID, post, fmt.Errorf("scan %s failed: %s", job.ID, ev.Error)
		}
	}
	return job.ID, post, fmt.Errorf("event stream closed before scan %s finished", job.ID)
}

func (b *leaksdBench) op(i int, t *tracer) (time.Duration, error) {
	s := b.next()
	s.sample = b.sample.intn(leaksdSample) == 0
	start := time.Now()
	id, post, err := b.scan(s)
	lat := time.Since(start)
	done := start.Add(lat)
	s.jobID = id
	if err != nil {
		b.scans = append(b.scans, s)
		return 0, err
	}
	if t != nil {
		b.traceScan(i, t, &s, start, done, post)
	}
	s.getsOK = b.readAll(t != nil)
	b.scans = append(b.scans, s)
	return lat, nil
}

// traceScan records a traced scan's spans from the job's own timestamps
// and replays the scan outside the daemon to split its run time.
func (b *leaksdBench) traceScan(i int, t *tracer, s *leaksdScan, start, done time.Time, post time.Duration) {
	job, _ := b.sched.JobByID(s.jobID)
	root := t.begin(rootSpan, i, -1)
	t.spans[root].Start = start.Sub(t.epoch)
	t.spans[root].Dur = done.Sub(start)
	t.add("service.submit", root, job.SubmittedAt.Sub(start))
	t.add("service.queue_wait", root, job.StartedAt.Sub(job.SubmittedAt))
	run := job.FinishedAt.Sub(job.StartedAt)
	runSpan := len(t.spans)
	t.add("service.run", root, run)
	t.add("service.notify", root, done.Sub(job.FinishedAt))

	build, pass, rendered, err := replay(s.target, s.seed)
	if err == nil {
		t.add("experiments.session_build", runSpan, build)
		t.add("engine.cold_pass", runSpan, pass)
		s.replayed = rendered
	}
	b.postMs = append(b.postMs, ms(post))
	b.runMs = append(b.runMs, ms(run))
}

// replay builds the scan's session outside the daemon and runs its first
// pass with the daemon's default worker count, returning both times and
// the rendering the daemon must match.
func replay(tg leaksdTarget, seed int64) (build, pass time.Duration, rendered string, err error) {
	prof, channels, err := targetProfile(tg)
	if err != nil {
		return 0, 0, "", err
	}
	t0 := time.Now()
	s, err := experiments.NewInspectSession(prof, chaos.Spec{}, seed)
	if err != nil {
		return 0, 0, "", err
	}
	defer s.Close()
	t1 := time.Now()
	ins := s.InspectChannels(channels, 0)
	t2 := time.Now()
	return t1.Sub(t0), t2.Sub(t1), renderInspection(ins), nil
}

// expectedRendering is what the daemon must render for a scan: the
// one-shot experiments.InspectProviderSeeded for a provider, the first
// matrix-channel pass of a fresh session for a runtime.
func expectedRendering(tg leaksdTarget, seed int64) (string, error) {
	if tg.runtime {
		_, _, rendered, err := replay(tg, seed)
		return rendered, err
	}
	prof, _, err := targetProfile(tg)
	if err != nil {
		return "", err
	}
	ins, err := experiments.InspectProviderSeeded(prof, chaos.Spec{}, seed)
	if err != nil {
		return "", err
	}
	return renderInspection(ins), nil
}

func targetProfile(tg leaksdTarget) (cloud.ProviderProfile, []core.Channel, error) {
	if tg.runtime {
		p, ok := service.RuntimeByName(tg.name)
		if !ok {
			return p, nil, fmt.Errorf("unknown runtime %q", tg.name)
		}
		return p, core.MatrixChannels(), nil
	}
	p, ok := service.ProviderByName(tg.name)
	if !ok {
		return p, nil, fmt.Errorf("unknown provider %q", tg.name)
	}
	return p, core.TableIChannels(), nil
}

// renderInspection is the daemon's documented inspect rendering: the
// single-provider Table I column leakscan prints, under an INSPECTION
// header naming the provider and the (disabled) chaos spec.
func renderInspection(ins experiments.CloudInspection) string {
	tb := texttable.New("Leakage Channels", "Leakage Information", strings.ToUpper(ins.Provider))
	for _, rep := range ins.Reports {
		tb.Row(rep.Channel.Name, rep.Channel.Info, rep.Availability.String())
	}
	return fmt.Sprintf("INSPECTION: %s (%s)\n%s", ins.Provider, chaos.Spec{}, tb.String())
}

// readAll sends the scan's follow-up GETs. Like leaksload -revalidate, a
// read carries If-None-Match whenever an earlier response to its path gave
// an ETag. It reports whether every GET answered 200, or 304 to a
// conditional request.
func (b *leaksdBench) readAll(traced bool) bool {
	ok := true
	for _, g := range b.readRound() {
		ep := g.endpoint
		url := "/v1/" + ep + g.query
		req := httptest.NewRequest(http.MethodGet, url, nil)
		inm := ""
		if tag, seen := b.etags[url]; seen {
			inm = tag
			req.Header.Set("If-None-Match", tag)
			b.inmSent++
		}
		rec := httptest.NewRecorder()
		ctr := b.missCtr[ep] // nil for the endpoints not reported
		var misses float64
		if traced && ctr != nil {
			misses = ctr.Value()
		}
		t0 := time.Now()
		b.handler.ServeHTTP(rec, req)
		d := time.Since(t0)
		b.readMs = append(b.readMs, ms(d))
		if traced && ctr != nil && ctr.Value() > misses {
			b.renderMs[ep] = append(b.renderMs[ep], ms(d))
		}
		switch {
		case rec.Code == http.StatusOK:
			if tag := rec.Header().Get("Etag"); tag != "" {
				b.etags[url] = tag
			}
		case rec.Code == http.StatusNotModified && inm != "":
		default:
			ok = false
		}
	}
	return ok
}

// leaksdGet is one read: an endpoint and its query.
type leaksdGet struct{ endpoint, query string }

// readRound returns one round of leaksdMix in a seeded order.
func (b *leaksdBench) readRound() []leaksdGet {
	var round []leaksdGet
	for _, e := range leaksdMix {
		for k := 0; k < e.weight; k++ {
			round = append(round, leaksdGet{e.endpoint, e.query})
		}
	}
	for i := len(round) - 1; i > 0; i-- {
		j := b.gets.intn(i + 1)
		round[i], round[j] = round[j], round[i]
	}
	return round
}

func (b *leaksdBench) reads() []float64 { return b.readMs }

func (b *leaksdBench) check(n int) ([]bool, []string) {
	var problems []string
	note := func(format string, args ...any) {
		if len(problems) < 8 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	ok := make([]bool, n)
	for i := 0; i < n && i < len(b.scans); i++ {
		s := b.scans[i]
		job, found := b.sched.JobByID(s.jobID)
		good := found && job.Status == service.StatusDone && job.Result != nil && s.getsOK
		if !good {
			note("op %d: scan %s not done or a GET answered neither 200 nor 304", i, s.jobID)
		}
		if good && (s.sample || s.replayed != "") {
			want := s.replayed
			if want == "" {
				var err error
				if want, err = expectedRendering(s.target, s.seed); err != nil {
					note("op %d: replay %s seed %d: %v", i, s.target.name, s.seed, err)
				}
			}
			if job.Result.Rendered != want {
				good = false
				note("op %d: %s seed %d rendered differently from the replay outside the daemon", i, s.target.name, s.seed)
			}
		}
		ok[i] = good
	}
	return ok, problems
}

// leaksdCounters are the daemon's exact counters.
type leaksdCounters struct {
	sessionHits, sessionMisses, restores uint64
}

func (b *leaksdBench) counters() leaksdCounters {
	info := b.sched.EngineInfo()
	return leaksdCounters{info.SessionHits, info.SessionMisses, experiments.SnapshotRestores()}
}

func (b *leaksdBench) counts() map[string]uint64 {
	info := b.sched.EngineInfo()
	now := b.counters()
	return map[string]uint64{
		"ops":                           uint64(len(b.scans)),
		"service.jobs_retained":         uint64(len(b.sched.Jobs())),
		"service.session_hits":          now.sessionHits - b.base.sessionHits,
		"service.session_misses":        now.sessionMisses - b.base.sessionMisses,
		"experiments.snapshot_restores": now.restores - b.base.restores,
		"engine.finding_hits":           info.Stats.FindingHits,
		"engine.finding_misses":         info.Stats.FindingMisses,
		"engine.host_renders":           info.Stats.HostRenders,
		"engine.host_hits":              info.Stats.HostHits,
	}
}

func (b *leaksdBench) layers(self map[int]map[string]float64) map[string]float64 {
	out := map[string]float64{
		"service.post_ms":              median(b.postMs),
		"service.run_ms":               median(b.runMs),
		"service.submit_ms":            medianSelf(self, "service.submit"),
		"service.queue_wait_ms":        medianSelf(self, "service.queue_wait"),
		"service.notify_ms":            medianSelf(self, "service.notify"),
		"experiments.session_build_ms": medianSelf(self, "experiments.session_build"),
		"engine.cold_pass_ms":          medianSelf(self, "engine.cold_pass"),
		"service.scan_overhead_ms":     medianSelf(self, "service.run"),
	}
	for _, e := range leaksdEndpoints {
		out["service.render_ms."+e] = median(b.renderMs[e])
	}
	c := b.counts()
	for _, k := range []string{"service.jobs_retained", "service.session_hits", "service.session_misses", "experiments.snapshot_restores"} {
		out[k] = float64(c[k])
	}
	hits, misses, n304, err := b.respcacheTotals()
	if err == nil {
		out["respcache.hit_ratio"] = hits / max(hits+misses, 1)
		out["respcache.revalidate_ratio"] = n304 / float64(max(b.inmSent, 1))
	}
	return out
}

// respcacheTotals reads the response-cache counters from GET /v1/metrics,
// the daemon's own exposition.
func (b *leaksdBench) respcacheTotals() (hits, misses, n304 float64, err error) {
	rec := httptest.NewRecorder()
	b.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("GET /v1/metrics: %d", rec.Code)
	}
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, perr := strconv.ParseFloat(f[1], 64)
		if perr != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "leaksd_http_respcache_hits_total"):
			hits += v
		case strings.HasPrefix(line, "leaksd_http_respcache_misses_total"):
			misses += v
		case strings.HasPrefix(line, "leaksd_http_requests_total") && strings.Contains(line, `status="304"`):
			n304 += v
		}
	}
	return hits, misses, n304, sc.Err()
}

func (b *leaksdBench) close() {
	if b.sched == nil {
		return
	}
	b.unsub()
	_ = b.sched.Shutdown(context.Background()) // every scan has finished; nothing is left to drain
}
