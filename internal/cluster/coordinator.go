package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config tunes the coordinator. Zero values select production defaults.
// The retry knobs mirror the scan scheduler's (service.Config): first
// retry waits RetryBackoff, each further retry doubles it, attempts are
// bounded by MaxAttempts, and — closing the gap the scheduler had until
// this PR — cumulative retry time is bounded by the deadline-aware
// RetryBudget, so a shard facing a permanently failing fleet terminates
// with a terminal status instead of retrying past its deadline.
type Config struct {
	// ShardSize bounds containers per shard; reassignment granularity is
	// one shard, so smaller shards move less work on a worker loss.
	// Default 32.
	ShardSize int
	// ShardWorkers bounds each shard's engine fan-out on its worker
	// (0 = the worker's GOMAXPROCS, 1 = serial).
	ShardWorkers int
	// MaxAttempts bounds execution attempts per shard (1 = no retries).
	// Default 4.
	MaxAttempts int
	// RetryBackoff is the first retry's delay; each further retry doubles
	// it. Default 25ms.
	RetryBackoff time.Duration
	// RetryBudget is the deadline-aware cap on one shard's cumulative
	// retry time, measured from its first attempt. Default 30s.
	RetryBudget time.Duration
	// ShardTimeout is the per-attempt deadline. Default 1m.
	ShardTimeout time.Duration
	// HeartbeatEvery is the liveness probe interval (Start). Default 2s.
	HeartbeatEvery time.Duration
	// DeadAfter marks a worker dead when its last successful beat is older
	// than this. Default 3×HeartbeatEvery.
	DeadAfter time.Duration
	// Replicas is the ring's virtual-node count per worker
	// (0 = DefaultReplicas).
	Replicas int
	// Now is the wall clock (tests inject a fake). Default time.Now.
	Now func() time.Time
	// Sleep waits between retries, honouring ctx. Default timer sleep.
	Sleep func(context.Context, time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.ShardSize <= 0 {
		c.ShardSize = 32
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 30 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Minute
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * c.HeartbeatEvery
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}
	return c
}

// ShardOutcome is a shard's terminal state within one scan.
type ShardOutcome string

// Shard terminal states.
const (
	ShardDone   ShardOutcome = "done"
	ShardFailed ShardOutcome = "failed"
)

// ShardStatus is the per-shard envelope entry of a fleet scan response:
// where the shard ran, how hard it was to land, and whether it landed.
type ShardStatus struct {
	Shard      int          `json:"shard"`
	Containers int          `json:"containers"`
	Worker     string       `json:"worker"` // last worker attempted
	Attempts   int          `json:"attempts"`
	Requeues   int          `json:"requeues"`
	Reassigned int          `json:"reassigned"`
	Status     ShardOutcome `json:"status"`
	Error      string       `json:"error,omitempty"`
}

// FleetResult is a merged cluster fleet scan. Findings are per fleet
// container in fleet order; containers of failed shards are nil and
// Partial is set — graceful degradation, never a silently truncated
// result.
type FleetResult struct {
	Spec       Spec             `json:"spec"`
	Findings   [][]core.Finding `json:"-"`
	Shards     []ShardStatus    `json:"shards"`
	Partial    bool             `json:"partial"`
	Generation uint64           `json:"generation"`
	Duration   time.Duration    `json:"-"`
}

// LeakingPerContainer counts Identical/Partial findings per container
// (-1 for containers of failed shards), the fleet summary the HTTP
// surface serves instead of raw findings.
func (r *FleetResult) LeakingPerContainer() []int {
	out := make([]int, len(r.Findings))
	for i, fs := range r.Findings {
		if fs == nil {
			out[i] = -1
			continue
		}
		for _, f := range fs {
			if f.Status == core.Identical || f.Status == core.Partial {
				out[i]++
			}
		}
	}
	return out
}

// WorkerStatus is one worker's view in the /v1/cluster envelope.
type WorkerStatus struct {
	ID    string `json:"id"`
	Alive bool   `json:"alive"`
	// LastBeatAgeSeconds is the age of the last successful probe
	// (-1 = never probed).
	LastBeatAgeSeconds float64 `json:"last_beat_age_seconds"`
	ShardsDone         uint64  `json:"shards_done"`
	Failures           uint64  `json:"failures"`
}

// Status is the coordinator's /v1/cluster envelope.
type Status struct {
	Workers       []WorkerStatus `json:"workers"`
	Scans         uint64         `json:"scans"`
	ShardsDone    uint64         `json:"shards_done"`
	ShardsFailed  uint64         `json:"shards_failed"`
	Requeues      uint64         `json:"requeues"`
	Reassignments uint64         `json:"reassignments"`
}

// workerState is the coordinator's liveness book-keeping for one worker.
type workerState struct {
	id         string
	alive      bool
	probed     bool
	lastBeat   time.Time
	shardsDone uint64
	failures   uint64
}

// Coordinator partitions fleet scans across workers, detects failures,
// requeues, and merges. Create with NewCoordinator; Start launches the
// heartbeat loop (optional — without it, death is detected by call
// failures alone and every routing decision still converges).
type Coordinator struct {
	cfg  Config
	tr   Transport
	ring *Ring
	met  *Metrics

	mu      sync.Mutex
	workers map[string]*workerState

	scanMu  sync.Mutex // serializes fleet scans: replica clocks only move forward
	scanSeq atomic.Uint64
	layout  atomic.Pointer[shardLayout] // the last scan's, read-only

	scans         atomic.Uint64
	shardsDone    atomic.Uint64
	shardsFailed  atomic.Uint64
	requeues      atomic.Uint64
	reassignments atomic.Uint64

	stopOnce sync.Once
	stop     chan struct{}
	hbWG     sync.WaitGroup
}

// NewCoordinator builds a coordinator over the worker IDs reachable
// through tr. Workers start presumed-alive (optimistic: the first failure
// or missed beat demotes them). met == nil registers metrics on a fresh
// registry.
func NewCoordinator(cfg Config, tr Transport, workerIDs []string, met *Metrics) *Coordinator {
	cfg = cfg.withDefaults()
	if met == nil {
		met = NewMetrics(nil)
	}
	c := &Coordinator{
		cfg:     cfg,
		tr:      tr,
		ring:    NewRing(workerIDs, cfg.Replicas),
		met:     met,
		workers: make(map[string]*workerState, len(workerIDs)),
		stop:    make(chan struct{}),
	}
	for _, id := range c.ring.Workers() {
		c.workers[id] = &workerState{id: id, alive: true}
	}
	met.WorkersKnown.With().Set(float64(len(c.workers)))
	met.WorkersLive.With().Set(float64(len(c.workers)))
	return c
}

// Start launches the heartbeat loop: every HeartbeatEvery, each worker is
// probed (serially per worker — per-link fault streams stay
// deterministic); a worker whose last successful beat is older than
// DeadAfter is marked dead and routed around until a probe succeeds again.
func (c *Coordinator) Start() {
	c.hbWG.Add(1)
	go func() {
		defer c.hbWG.Done()
		t := time.NewTicker(c.cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop terminates the heartbeat loop. Idempotent.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.hbWG.Wait()
}

// probeAll pings every worker once and applies the deadline rule.
func (c *Coordinator) probeAll() {
	now := c.cfg.Now()
	for _, id := range c.ring.Workers() {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatEvery)
		_, err := c.tr.Ping(ctx, id)
		cancel()
		c.mu.Lock()
		w := c.workers[id]
		if err == nil {
			w.probed = true
			w.lastBeat = now
			w.alive = true
		} else {
			w.failures++
			c.met.HeartbeatFailures.With(id).Inc()
			if !w.probed || now.Sub(w.lastBeat) > c.cfg.DeadAfter {
				w.alive = false
			}
		}
		c.mu.Unlock()
	}
	c.met.WorkersLive.With().Set(float64(len(c.liveWorkers())))
}

// liveWorkers snapshots the IDs currently considered alive.
func (c *Coordinator) liveWorkers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.workers))
	for id, w := range c.workers {
		if w.alive {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func (c *Coordinator) isAlive(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	return ok && w.alive
}

// markDown demotes a worker after a failed shard call. Unlike a missed
// heartbeat this is advisory — the next successful probe (or successful
// call) revives it — but it keeps requeued shards from bouncing straight
// back to a crashed worker between probes.
func (c *Coordinator) markDown(id string) {
	c.mu.Lock()
	if w, ok := c.workers[id]; ok {
		w.failures++
		w.alive = false
	}
	c.mu.Unlock()
	c.met.WorkersLive.With().Set(float64(len(c.liveWorkers())))
}

// markUp records a successful shard call.
func (c *Coordinator) markUp(id string) {
	c.mu.Lock()
	if w, ok := c.workers[id]; ok {
		w.shardsDone++
		if !w.alive {
			w.alive = true
		}
	}
	c.mu.Unlock()
}

// Status snapshots the coordinator for /v1/cluster.
func (c *Coordinator) Status() Status {
	now := c.cfg.Now()
	c.mu.Lock()
	ws := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		age := -1.0
		if w.probed {
			age = now.Sub(w.lastBeat).Seconds()
		}
		ws = append(ws, WorkerStatus{
			ID:                 w.id,
			Alive:              w.alive,
			LastBeatAgeSeconds: age,
			ShardsDone:         w.shardsDone,
			Failures:           w.failures,
		})
	}
	c.mu.Unlock()
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	return Status{
		Workers:       ws,
		Scans:         c.scans.Load(),
		ShardsDone:    c.shardsDone.Load(),
		ShardsFailed:  c.shardsFailed.Load(),
		Requeues:      c.requeues.Load(),
		Reassignments: c.reassignments.Load(),
	}
}

// shardState is one shard's mutable dispatch state within a scan.
type shardState struct {
	idx        int
	containers []int    // shared with the memoized layout, read-only
	seq        []string // deterministic failover order (ring walk); shared, read-only
	seqPos     int      // index into seq of the worker currently holding it
	attempts   int
	requeues   int
	reassigned int
	deadline   time.Time // retry-budget deadline, set at first attempt
	status     ShardOutcome
	err        error
	result     *ShardResult
}

// worker returns the shard's current worker.
func (sh *shardState) worker() string { return sh.seq[sh.seqPos%len(sh.seq)] }

// shardLayout is a scan's shard layout: each shard's index, containers
// and failover walk, in shardStates whose dispatch fields are all zero.
// It is read-only once built, so every scan of the same (provider,
// containers) copies its shards and keeps its own dispatch state.
type shardLayout struct {
	provider   string
	containers int
	shards     []shardState
}

// partition returns the scan's shards in fresh dispatch state, over the
// memoized layout when the last scan had the same provider and fleet
// size.
func (c *Coordinator) partition(spec Spec) []*shardState {
	spec = spec.Normalize()
	l := c.layout.Load()
	if l == nil || l.provider != spec.Provider || l.containers != spec.Containers {
		l = c.computeLayout(spec)
		c.layout.Store(l)
	}
	states := slices.Clone(l.shards)
	shards := make([]*shardState, len(states))
	for i := range states {
		shards[i] = &states[i]
	}
	return shards
}

// computeLayout computes the shard layout of a normalized spec: containers
// hash onto the ring by (provider, mount name), per-worker batches keep
// fleet order, and each batch is chunked into shards of at most
// ShardSize. The layout is a pure function of (spec, worker set,
// ShardSize); the ring and ShardSize are fixed for the coordinator's
// life, so partition memoizes it by provider and fleet size, and the
// differential suite exploits it to sweep layouts.
func (c *Coordinator) computeLayout(spec Spec) *shardLayout {
	byWorker := make(map[string][]int)
	for i := 0; i < spec.Containers; i++ {
		key := spec.Provider + "|" + ContainerName(i)
		w := c.ring.Owner(key)
		byWorker[w] = append(byWorker[w], i)
	}
	workers := make([]string, 0, len(byWorker))
	for w := range byWorker {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	l := &shardLayout{provider: spec.Provider, containers: spec.Containers}
	for _, w := range workers {
		batch := byWorker[w]
		for len(batch) > 0 {
			n := min(c.cfg.ShardSize, len(batch))
			chunk := batch[:n:n]
			batch = batch[n:]
			// The shard inherits its first container's failover walk; all
			// its containers map to the same owner, so the walk starts at
			// that owner by construction.
			key := spec.Provider + "|" + ContainerName(chunk[0])
			l.shards = append(l.shards, shardState{
				idx:        len(l.shards),
				containers: chunk,
				seq:        c.ring.Sequence(key),
			})
		}
	}
	return l
}

// Scan runs one clustered fleet scan: partition, dispatch with failure
// detection and requeue, merge. The merged findings are byte-identical to
// SingleNode(spec, …) for every container whose shard landed; shards that
// exhausted their retry budget leave nil findings and set Partial. Scans
// are serialized (replica clocks move only forward); ctx cancels the scan
// (shards then terminate as failed with the ctx error).
func (c *Coordinator) Scan(ctx context.Context, spec Spec) (*FleetResult, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if len(c.ring.Workers()) == 0 {
		return nil, fmt.Errorf("cluster: no workers configured")
	}
	c.scanMu.Lock()
	defer c.scanMu.Unlock()

	start := c.cfg.Now()
	scanID := fmt.Sprintf("fleet-%06d", c.scanSeq.Add(1))
	shards := c.partition(spec)

	run := &scanRun{
		c:      c,
		ctx:    ctx,
		spec:   spec,
		scanID: scanID,
		queues: make(map[string]chan *shardState, len(c.workers)),
		done:   make(chan struct{}),
	}
	run.pending.Add(len(shards))
	// A shard occupies exactly one queue at a time, so total capacity
	// len(shards) per queue makes every send non-blocking.
	for _, id := range c.ring.Workers() {
		run.queues[id] = make(chan *shardState, len(shards))
	}
	var loops sync.WaitGroup
	for _, id := range c.ring.Workers() {
		loops.Add(1)
		go func(id string) {
			defer loops.Done()
			run.workerLoop(id)
		}(id)
	}
	for _, sh := range shards {
		run.queues[sh.worker()] <- sh
	}
	go func() {
		run.pending.Wait()
		close(run.done)
	}()
	<-run.done
	loops.Wait()

	// Merge in fleet order; verify cross-replica convergence.
	res := &FleetResult{
		Spec:     spec,
		Findings: make([][]core.Finding, spec.Containers),
		Shards:   make([]ShardStatus, len(shards)),
		Duration: c.cfg.Now().Sub(start),
	}
	for _, sh := range shards {
		st := ShardStatus{
			Shard:      sh.idx,
			Containers: len(sh.containers),
			Worker:     sh.worker(),
			Attempts:   sh.attempts,
			Requeues:   sh.requeues,
			Reassigned: sh.reassigned,
			Status:     sh.status,
		}
		if sh.err != nil {
			st.Error = sh.err.Error()
		}
		res.Shards[sh.idx] = st
		if sh.status != ShardDone {
			res.Partial = true
			continue
		}
		if res.Generation == 0 {
			res.Generation = sh.result.Generation
		}
		for i, ci := range sh.containers {
			res.Findings[ci] = sh.result.Findings[i]
		}
	}
	c.scans.Add(1)
	outcome := "done"
	if res.Partial {
		outcome = "partial"
	}
	allFailed := true
	for _, st := range res.Shards {
		if st.Status == ShardDone {
			allFailed = false
			break
		}
	}
	if allFailed && len(res.Shards) > 0 {
		outcome = "failed"
	}
	c.met.ScansTotal.With(outcome).Inc()
	if allFailed && len(res.Shards) > 0 {
		return res, fmt.Errorf("cluster: scan %s: all %d shards failed, first: %v",
			scanID, len(res.Shards), res.Shards[0].Error)
	}
	return res, nil
}

// scanRun is the per-scan dispatch state.
type scanRun struct {
	c       *Coordinator
	ctx     context.Context
	spec    Spec
	scanID  string
	queues  map[string]chan *shardState
	pending sync.WaitGroup
	done    chan struct{}
	genMu   sync.Mutex
	gen     uint64 // first observed generation; later shards must match
}

// workerLoop serializes one worker's shard calls (per-link chaos streams
// stay deterministic) until the scan completes.
func (r *scanRun) workerLoop(id string) {
	for {
		select {
		case <-r.done:
			return
		case sh := <-r.queues[id]:
			r.dispatch(id, sh)
		}
	}
}

// dispatch runs one attempt of one shard on one worker and routes the
// outcome: success records it, failure retries through backoff /
// reassignment until the attempt or budget bound trips.
func (r *scanRun) dispatch(id string, sh *shardState) {
	c := r.c
	if err := r.ctx.Err(); err != nil {
		r.terminate(sh, ShardFailed, err)
		return
	}
	// A dead worker bounces the shard to the next live one without
	// spending an attempt — routing, not retrying.
	if !c.isAlive(id) {
		if r.advanceWorker(sh, false) {
			return
		}
		// No live worker anywhere: fall through and try anyway — the
		// attempt/budget bounds decide when to give up.
	}
	if sh.attempts == 0 {
		sh.deadline = c.cfg.Now().Add(c.cfg.RetryBudget)
	}
	sh.attempts++
	actx, cancel := context.WithTimeout(r.ctx, c.cfg.ShardTimeout)
	start := c.cfg.Now()
	res, err := c.tr.ExecShard(actx, sh.worker(), &ShardRequest{
		ScanID:     r.scanID,
		Shard:      sh.idx,
		Spec:       r.spec,
		Containers: sh.containers,
		Workers:    c.cfg.ShardWorkers,
	})
	cancel()
	if err == nil {
		err = r.verify(sh, res)
	}
	if err == nil {
		c.markUp(sh.worker())
		c.met.ShardSeconds.With().Observe(c.cfg.Now().Sub(start).Seconds())
		sh.result = res
		r.terminate(sh, ShardDone, nil)
		return
	}
	c.markDown(sh.worker())
	sh.err = err
	// Bounded retries: attempts, then the deadline-aware budget.
	if sh.attempts >= c.cfg.MaxAttempts {
		r.terminate(sh, ShardFailed,
			fmt.Errorf("cluster: shard %d failed after %d attempts: %w", sh.idx, sh.attempts, err))
		return
	}
	if c.cfg.Now().After(sh.deadline) {
		r.terminate(sh, ShardFailed,
			fmt.Errorf("cluster: shard %d retry budget %v exhausted after %d attempts: %w",
				sh.idx, c.cfg.RetryBudget, sh.attempts, err))
		return
	}
	// Exponential backoff: base, 2·base, 4·base, … (same ladder as the
	// scan scheduler's).
	if serr := c.cfg.Sleep(r.ctx, c.cfg.RetryBackoff<<(sh.attempts-1)); serr != nil {
		r.terminate(sh, ShardFailed, serr)
		return
	}
	r.advanceWorker(sh, true)
}

// verify cross-checks a shard result against the scan's convergence
// invariants: right shape, and the same replica generation every other
// shard reported.
func (r *scanRun) verify(sh *shardState, res *ShardResult) error {
	if res == nil || len(res.Findings) != len(sh.containers) {
		got := 0
		if res != nil {
			got = len(res.Findings)
		}
		return fmt.Errorf("cluster: shard %d returned %d container results, want %d", sh.idx, got, len(sh.containers))
	}
	r.genMu.Lock()
	defer r.genMu.Unlock()
	if r.gen == 0 {
		r.gen = res.Generation
		return nil
	}
	if res.Generation != r.gen {
		return fmt.Errorf("cluster: shard %d replica generation %d diverges from scan generation %d",
			sh.idx, res.Generation, r.gen)
	}
	return nil
}

// advanceWorker moves the shard to the next worker on its failover walk —
// preferring the next *live* one — and requeues it. countAttempt selects
// whether this is a retry (true) or a dead-worker bounce (false). Returns
// false when the walk found no live worker and the caller should attempt
// in place.
func (r *scanRun) advanceWorker(sh *shardState, countAttempt bool) bool {
	c := r.c
	from := sh.worker()
	next := -1
	for i := 1; i <= len(sh.seq); i++ {
		cand := sh.seq[(sh.seqPos+i)%len(sh.seq)]
		if c.isAlive(cand) {
			next = sh.seqPos + i
			break
		}
	}
	if next < 0 {
		if !countAttempt {
			return false // nobody alive; attempt in place
		}
		next = sh.seqPos + 1 // retry marches the walk even through the dead
	}
	sh.seqPos = next
	sh.requeues++
	c.requeues.Add(1)
	c.met.Requeues.With().Inc()
	if sh.worker() != from {
		sh.reassigned++
		c.reassignments.Add(1)
		c.met.Reassignments.With().Inc()
	}
	r.queues[sh.worker()] <- sh
	return true
}

// terminate records a shard's terminal state exactly once.
func (r *scanRun) terminate(sh *shardState, st ShardOutcome, err error) {
	sh.status = st
	if err != nil {
		sh.err = err
	}
	if st == ShardDone {
		sh.err = nil
		r.c.shardsDone.Add(1)
		r.c.met.ShardsTotal.With(string(ShardDone)).Inc()
	} else {
		r.c.shardsFailed.Add(1)
		r.c.met.ShardsTotal.With(string(ShardFailed)).Inc()
	}
	r.pending.Done()
}
