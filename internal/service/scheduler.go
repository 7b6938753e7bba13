package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states. Queued → Running → (Done | Failed | Canceled);
// cache hits are born Done.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Job is one scheduled scan. The scheduler hands out value snapshots;
// Result is immutable once set, so sharing the pointer across snapshots
// is safe.
type Job struct {
	ID string `json:"id"`
	// Name tags jobs submitted by a recurring schedule ("" for ad hoc).
	Name    string      `json:"name,omitempty"`
	Request ScanRequest `json:"request"`
	Status  JobStatus   `json:"status"`
	// CacheHit marks jobs served from the result store without compute.
	CacheHit    bool        `json:"cache_hit"`
	Attempts    int         `json:"attempts"`
	Error       string      `json:"error,omitempty"`
	SubmittedAt time.Time   `json:"submitted_at"`
	StartedAt   time.Time   `json:"started_at,omitzero"`
	FinishedAt  time.Time   `json:"finished_at,omitzero"`
	Result      *ScanResult `json:"result,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool {
	return j.Status == StatusDone || j.Status == StatusFailed || j.Status == StatusCanceled
}

// ProviderVerdicts is the latest verdict set for one provider — what
// GET /results serves.
type ProviderVerdicts struct {
	Provider  string    `json:"provider"`
	JobID     string    `json:"job_id"`
	UpdatedAt time.Time `json:"updated_at"`
	Verdicts  []Verdict `json:"verdicts"`
}

// Config tunes the scheduler. Zero values select production defaults.
type Config struct {
	// QueueCap bounds the job queue; submissions beyond it are rejected
	// with ErrQueueFull (backpressure beats unbounded memory). Default 64.
	QueueCap int
	// Workers is the number of concurrent scan executors. Each scan fans
	// out internally via internal/parallel, so a small number of heavy
	// jobs saturates the host; default 2.
	Workers int
	// JobTimeout is the per-job deadline (covers all of one attempt's
	// compute). Default 5m.
	JobTimeout time.Duration
	// MaxAttempts bounds execution attempts per job (1 = no retries).
	// Default 3.
	MaxAttempts int
	// RetryBackoff is the first retry's delay; each further retry doubles
	// it. Default 50ms.
	RetryBackoff time.Duration
	// RetryBudget is the deadline-aware cap on one job's cumulative
	// retry time, measured from its first attempt: once the budget has
	// elapsed no further attempt starts, and the job terminates with a
	// terminal failed status citing the budget. It closes the latent gap
	// where a permanently failing job with a long backoff ladder could
	// keep burning attempts long past any useful deadline. Default
	// MaxAttempts×JobTimeout — wide enough to never cut short a ladder
	// the attempt bound alone would have allowed.
	RetryBudget time.Duration
	// StoreCap / StoreTTL size the result store. Defaults 128 / 15m.
	StoreCap int
	StoreTTL time.Duration
	// SessionCap bounds the engine-backed session pool (the persistent
	// simulated worlds recurring chaos-free scans reuse across ticks);
	// least-recently-used sessions are evicted beyond it. Default 16.
	SessionCap int
	// Now is the wall clock (tests inject a fake). Default time.Now.
	Now func() time.Time
	// Sleep waits between retries, honouring ctx. Default timer sleep;
	// tests inject an instant one.
	Sleep func(context.Context, time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = time.Duration(c.MaxAttempts) * c.JobTimeout
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = ctxSleep
	}
	return c
}

func ctxSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Submission failure sentinels (the HTTP layer maps them to 429/503/400,
// and ErrUnknownTarget to 404 unknown_target).
var (
	ErrQueueFull  = errors.New("service: scan queue full")
	ErrDraining   = errors.New("service: scheduler is draining")
	ErrBadRequest = errors.New("service: invalid scan request")
	// ErrUnknownTarget marks a request naming a scan target (runtime) that
	// does not exist — a 404-class failure, distinct from a malformed body.
	ErrUnknownTarget = errors.New("service: unknown scan target")
)

// Scheduler owns the job queue, the worker pool, the result store, the
// verdict tracker, and the event hub.
type Scheduler struct {
	cfg    Config
	store  *Store
	met    *Metrics
	hub    *hub
	pool   *sessionPool
	runner func(context.Context, ScanRequest) (*ScanResult, error) // nil = runScan

	ctx    context.Context
	cancel context.CancelFunc

	mu                    sync.Mutex
	jobs                  map[string]*Job
	order                 []string
	seq                   int
	lastAvail             map[string]string // provider\x00channel → availability
	latest                map[string]*ProviderVerdicts
	lastEvict, lastExpire uint64

	// qmu serializes queue sends against Shutdown's close(queue): a
	// submission that passed the draining check must either land before
	// the close or observe draining under this lock — never send on a
	// closed channel.
	qmu      sync.Mutex
	queue    chan *Job
	wg       sync.WaitGroup
	recWG    sync.WaitGroup
	recStop  chan struct{}
	draining atomic.Bool
	started  atomic.Bool

	// Serving epochs back the /v1 response cache (internal/service/respcache):
	// each counts the mutations that can change one read endpoint's bytes, and
	// every bump happens inside the same critical section as the mutation it
	// reports, so a render that reads the epoch first and the data second can
	// never cache new bytes under an old epoch.
	//
	//   jobsEpoch    any Job field mutation (GET /v1/scans)
	//   resultsEpoch a latest-verdict update (GET /v1/results)
	//   engineEpoch  a real scan touched the session pool (GET /v1/engine)
	//
	// running counts scans currently executing; /v1/engine is only cacheable
	// at quiescence (running == 0), because a mid-scan pool snapshot changes
	// without an epoch bump.
	jobsEpoch    atomic.Uint64
	resultsEpoch atomic.Uint64
	engineEpoch  atomic.Uint64
	running      atomic.Int64
}

// New builds a scheduler (not yet running; call Start). met == nil
// registers metrics on a fresh registry.
func New(cfg Config, met *Metrics) *Scheduler {
	cfg = cfg.withDefaults()
	if met == nil {
		met = NewMetrics(nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Scheduler{
		cfg:       cfg,
		store:     NewStore(cfg.StoreCap, cfg.StoreTTL, cfg.Now),
		met:       met,
		hub:       newHub(),
		pool:      newSessionPool(cfg.SessionCap),
		ctx:       ctx,
		cancel:    cancel,
		jobs:      make(map[string]*Job),
		lastAvail: make(map[string]string),
		latest:    make(map[string]*ProviderVerdicts),
		queue:     make(chan *Job, cfg.QueueCap),
		recStop:   make(chan struct{}),
	}
}

// Metrics exposes the scheduler's registry (for the /metrics handler).
func (s *Scheduler) Metrics() *Metrics { return s.met }

// Start launches the worker pool. Idempotent.
func (s *Scheduler) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.met.QueueDepth.With().Set(float64(len(s.queue)))
				s.runJob(job)
			}
		}()
	}
}

// Submit enqueues a scan (or serves it from the result store). The
// returned Job is a snapshot; poll JobByID for progress.
func (s *Scheduler) Submit(req ScanRequest) (Job, error) { return s.submit(req, "") }

func (s *Scheduler) submit(req ScanRequest, name string) (Job, error) {
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		if errors.Is(err, ErrUnknownTarget) {
			return Job{}, err
		}
		return Job{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if s.draining.Load() {
		s.met.QueueRejects.With("draining").Inc()
		return Job{}, ErrDraining
	}

	key := req.Key()
	if res, ok := s.store.Get(key); ok {
		s.met.CacheHits.With().Inc()
		job := s.newJob(req, name)
		now := s.cfg.Now()
		s.mu.Lock()
		job.Status = StatusDone
		job.CacheHit = true
		job.Result = res
		job.StartedAt = now
		job.FinishedAt = now
		snap := *job
		s.jobsEpoch.Add(1)
		s.mu.Unlock()
		s.met.ScansTotal.With(string(req.Kind), string(StatusDone)).Inc()
		s.publish(Event{Type: EventScanDone, JobID: job.ID, Kind: req.Kind,
			Provider: req.Provider, Epoch: s.engineEpoch.Load(), CacheHit: true})
		return snap, nil
	}
	s.met.CacheMisses.With().Inc()

	job := s.newJob(req, name)
	s.qmu.Lock()
	if s.draining.Load() {
		// Shutdown began between the fast-path check and here; the queue
		// may already be closed.
		s.qmu.Unlock()
		s.met.QueueRejects.With("draining").Inc()
		s.failJob(job, ErrDraining)
		return Job{}, ErrDraining
	}
	select {
	case s.queue <- job:
		s.qmu.Unlock()
		s.met.QueueDepth.With().Set(float64(len(s.queue)))
		return s.snapshot(job.ID), nil
	default:
		s.qmu.Unlock()
		s.met.QueueRejects.With("full").Inc()
		s.failJob(job, ErrQueueFull)
		return Job{}, ErrQueueFull
	}
}

// failJob marks a never-enqueued job failed with err.
func (s *Scheduler) failJob(job *Job, err error) {
	s.mu.Lock()
	job.Status = StatusFailed
	job.Error = err.Error()
	job.FinishedAt = s.cfg.Now()
	s.jobsEpoch.Add(1)
	s.mu.Unlock()
}

// newJob allocates and records a queued job.
func (s *Scheduler) newJob(req ScanRequest, name string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	job := &Job{
		ID:          fmt.Sprintf("scan-%06d", s.seq),
		Name:        name,
		Request:     req,
		Status:      StatusQueued,
		SubmittedAt: s.cfg.Now(),
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.jobsEpoch.Add(1)
	return job
}

// runJob executes one job with retry/backoff under the per-job deadline.
func (s *Scheduler) runJob(job *Job) {
	if s.ctx.Err() != nil {
		// Forced shutdown already fired: surface the queued job as
		// canceled rather than silently dropping it.
		s.finish(job, nil, s.ctx.Err())
		return
	}
	s.mu.Lock()
	job.Status = StatusRunning
	job.StartedAt = s.cfg.Now()
	s.jobsEpoch.Add(1)
	s.mu.Unlock()
	s.running.Add(1)
	s.met.Inflight.With().Add(1)
	defer s.met.Inflight.With().Add(-1)

	var (
		res *ScanResult
		err error
	)
	deadline := s.cfg.Now().Add(s.cfg.RetryBudget)
	for attempt := 1; attempt <= s.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			if s.cfg.Now().After(deadline) {
				err = fmt.Errorf("service: retry budget %v exhausted after %d attempts: %w",
					s.cfg.RetryBudget, attempt-1, err)
				break
			}
			s.met.Retries.With(string(job.Request.Kind)).Inc()
			// Exponential backoff: base, 2·base, 4·base, …
			if serr := s.cfg.Sleep(s.ctx, s.cfg.RetryBackoff<<(attempt-2)); serr != nil {
				err = serr
				break
			}
		}
		s.mu.Lock()
		job.Attempts = attempt
		s.jobsEpoch.Add(1)
		s.mu.Unlock()

		jctx, cancel := context.WithTimeout(s.ctx, s.cfg.JobTimeout)
		start := s.cfg.Now()
		res, err = s.run(jctx, job.Request)
		cancel()
		if err == nil {
			s.met.ScanSeconds.With(string(job.Request.Kind)).Observe(s.cfg.Now().Sub(start).Seconds())
			break
		}
		if s.ctx.Err() != nil {
			break // shutting down: do not burn retries on a dead world
		}
	}
	// Quiesce before finish marks the job terminal: a client that has
	// seen the job done must find /v1/engine cacheable again (run has
	// already bumped engineEpoch).
	s.running.Add(-1)
	s.finish(job, res, err)
}

// run is the execution hook: nil runner selects the real scan path,
// routed through the engine-backed session pool so recurring chaos-free
// scans reuse incremental state across ticks.
func (s *Scheduler) run(ctx context.Context, req ScanRequest) (*ScanResult, error) {
	if s.runner != nil {
		return s.runner(ctx, req)
	}
	res, err := runScanWith(ctx, req, s.pool)
	s.syncEngineMetrics()
	s.engineEpoch.Add(1)
	return res, err
}

// JobsEpoch counts Job mutations — the /v1/scans serving epoch.
func (s *Scheduler) JobsEpoch() uint64 { return s.jobsEpoch.Load() }

// ResultsEpoch counts latest-verdict updates — the /v1/results serving
// epoch.
func (s *Scheduler) ResultsEpoch() uint64 { return s.resultsEpoch.Load() }

// EngineEpoch counts session-pool generations — the /v1/engine serving
// epoch. Only meaningful at quiescence; see RunningScans.
func (s *Scheduler) EngineEpoch() uint64 { return s.engineEpoch.Load() }

// RunningScans reports how many scans are executing right now. While it is
// non-zero the session pool mutates without epoch bumps, so /v1/engine
// bypasses its response cache.
func (s *Scheduler) RunningScans() int64 { return s.running.Load() }

// EngineInfo snapshots the session pool and the aggregate incremental
// engine counters — what GET /v1/engine serves.
func (s *Scheduler) EngineInfo() EngineInfo { return s.pool.info() }

// syncEngineMetrics mirrors the aggregate engine counters into the
// telemetry registry after each executed scan.
func (s *Scheduler) syncEngineMetrics() {
	info := s.pool.info()
	s.met.EngineSessions.With().Set(float64(info.Sessions))
	s.met.EngineSessionHits.With().Set(float64(info.SessionHits))
	s.met.EngineSessionMisses.With().Set(float64(info.SessionMisses))
	s.met.EngineFindingHits.With().Set(float64(info.Stats.FindingHits))
	s.met.EngineFindingMisses.With().Set(float64(info.Stats.FindingMisses))
	s.met.EngineHostRenders.With().Set(float64(info.Stats.HostRenders))
	s.met.EngineHostHits.With().Set(float64(info.Stats.HostHits))
	s.met.EngineSnapshotRestores.With().Set(float64(info.SnapshotRestores))
}

// SetRunner replaces the scan executor (tests inject fast fakes; must be
// called before Start).
func (s *Scheduler) SetRunner(fn func(context.Context, ScanRequest) (*ScanResult, error)) {
	s.runner = fn
}

// finish records a job's terminal state, stores/publishes results, and
// emits events.
func (s *Scheduler) finish(job *Job, res *ScanResult, err error) {
	now := s.cfg.Now()
	if err != nil {
		status := StatusFailed
		if errors.Is(err, context.Canceled) && s.ctx.Err() != nil {
			status = StatusCanceled
		}
		s.mu.Lock()
		job.Status = status
		job.Error = err.Error()
		job.FinishedAt = now
		s.jobsEpoch.Add(1)
		s.mu.Unlock()
		s.met.ScansTotal.With(string(job.Request.Kind), string(status)).Inc()
		s.publish(Event{Type: EventScanFailed, JobID: job.ID, Kind: job.Request.Kind,
			Provider: job.Request.Provider, Epoch: s.engineEpoch.Load(), Error: err.Error()})
		return
	}

	res.CompletedAt = now
	s.store.Put(job.Request.Key(), res)
	s.syncStoreMetrics()

	// Verdict tracking: count every cell, flag the ones that moved, and
	// emit verdict events before the completion event so a subscriber that
	// sees scan_done has already seen the verdicts.
	s.mu.Lock()
	engineEpoch := s.engineEpoch.Load()
	events := make([]Event, 0, len(res.Verdicts)+1)
	byProvider := make(map[string][]Verdict)
	for _, v := range res.Verdicts {
		s.met.Verdicts.With(v.Channel, v.Availability).Inc()
		k := v.Provider + "\x00" + v.Channel
		prev, seen := s.lastAvail[k]
		changed := !seen || prev != v.Availability
		if seen && prev != v.Availability {
			s.met.VerdictChanges.With(v.Provider).Inc()
		}
		s.lastAvail[k] = v.Availability
		events = append(events, Event{
			Type: EventVerdict, JobID: job.ID, Kind: job.Request.Kind,
			Provider: v.Provider, Channel: v.Channel,
			Availability: v.Availability, Changed: changed, Previous: prev,
			Epoch: engineEpoch,
		})
		byProvider[v.Provider] = append(byProvider[v.Provider], v)
	}
	for provider, vs := range byProvider {
		s.latest[provider] = &ProviderVerdicts{
			Provider: provider, JobID: job.ID, UpdatedAt: now, Verdicts: vs,
		}
	}
	job.Status = StatusDone
	job.Result = res
	job.FinishedAt = now
	s.jobsEpoch.Add(1)
	s.resultsEpoch.Add(1)
	s.mu.Unlock()

	s.met.ScansTotal.With(string(job.Request.Kind), string(StatusDone)).Inc()
	for _, ev := range events {
		s.publish(ev)
	}
	s.publish(Event{Type: EventScanDone, JobID: job.ID, Kind: job.Request.Kind,
		Provider: job.Request.Provider, Epoch: engineEpoch})
}

// syncStoreMetrics folds the store's cumulative counters into the
// telemetry registry (counters only move forward, so deltas are safe).
func (s *Scheduler) syncStoreMetrics() {
	_, _, evict, expire := s.store.Stats()
	s.mu.Lock()
	dEvict, dExpire := evict-s.lastEvict, expire-s.lastExpire
	s.lastEvict, s.lastExpire = evict, expire
	s.mu.Unlock()
	if dEvict > 0 {
		s.met.StoreEvictions.With().Add(float64(dEvict))
	}
	if dExpire > 0 {
		s.met.StoreExpirations.With().Add(float64(dExpire))
	}
	s.met.StoreEntries.With().Set(float64(s.store.Len()))
}

func (s *Scheduler) publish(ev Event) {
	if dropped := s.hub.Publish(ev); dropped > 0 {
		s.met.EventsDropped.With().Add(float64(dropped))
	}
}

// Subscribe attaches an event-stream subscriber (see hub.Subscribe).
func (s *Scheduler) Subscribe() (<-chan Event, func()) { return s.hub.Subscribe() }

// JobByID returns a snapshot of one job.
func (s *Scheduler) JobByID(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// Jobs returns snapshots of every job in submission order.
func (s *Scheduler) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id])
	}
	return out
}

func (s *Scheduler) snapshot(id string) Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return *s.jobs[id]
}

// Results returns the latest verdicts per provider (all providers when
// provider == "", sorted by name for deterministic rendering).
func (s *Scheduler) Results(provider string) []ProviderVerdicts {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ProviderVerdicts
	for name, pv := range s.latest {
		if provider != "" && name != provider {
			continue
		}
		out = append(out, *pv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}

// Every registers a recurring named job: req is submitted every interval
// until the returned stop function is called or the scheduler shuts down.
// Submission failures (full queue, drain) are counted and skipped — the
// next tick tries again.
func (s *Scheduler) Every(name string, interval time.Duration, req ScanRequest) (func(), error) {
	req = req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("%w: non-positive interval %v", ErrBadRequest, interval)
	}
	stop := make(chan struct{})
	var once sync.Once
	s.recWG.Add(1)
	go func() {
		defer s.recWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.recStop:
				return
			case <-stop:
				return
			case <-t.C:
				_, _ = s.submit(req, name)
			}
		}
	}()
	return func() { once.Do(func() { close(stop) }) }, nil
}

// Shutdown drains the scheduler: no new submissions are accepted, queued
// and in-flight jobs run to completion (their results land in the store
// and on the event stream), and recurring schedules stop. If ctx expires
// first, the root context is cancelled — in-flight scans abort at their
// next dispatch point (parallel.MapCtx) and are marked canceled — and
// Shutdown returns ctx.Err(). Idempotent.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(s.recStop)
	s.recWG.Wait()
	s.qmu.Lock()
	close(s.queue)
	s.qmu.Unlock()
	if !s.started.Load() {
		s.cancel()
		s.hub.CloseAll()
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		s.hub.CloseAll()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		s.hub.CloseAll()
		return ctx.Err()
	}
}
