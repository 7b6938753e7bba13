package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// instantSleep makes retry backoff free in tests.
func instantSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// testConfig is the fast-retry coordinator config most tests use.
func testConfig() Config {
	return Config{
		ShardSize:    4,
		MaxAttempts:  4,
		RetryBackoff: time.Millisecond,
		Sleep:        instantSleep,
	}
}

// newInProcCluster builds n workers, each with its own replica cache (the
// worker-daemon topology: every node reconstructs worlds independently),
// wired through an in-process transport.
func newInProcCluster(t testing.TB, n int, cfg Config) (*Coordinator, *InProc) {
	t.Helper()
	workers := make([]*Worker, n)
	ids := make([]string, n)
	for i := range workers {
		ids[i] = fmt.Sprintf("worker-%d", i)
		workers[i] = NewWorker(ids[i], NewLocalWorlds(2))
	}
	tr := NewInProc(workers...)
	return NewCoordinator(cfg, tr, ids, nil), tr
}

// mustJSON renders findings for byte-level comparison.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"w2", "w0", "w1"}, 0)
	b := NewRing([]string{"w1", "w2", "w0"}, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("local|%s", ContainerName(i))
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q depends on worker insertion order", key)
		}
		seq := a.Sequence(key)
		if len(seq) != 3 {
			t.Fatalf("sequence of %q covers %d workers, want 3", key, len(seq))
		}
		if seq[0] != a.Owner(key) {
			t.Fatalf("sequence of %q starts at %q, owner is %q", key, seq[0], a.Owner(key))
		}
		seen := map[string]bool{}
		for _, w := range seq {
			if seen[w] {
				t.Fatalf("sequence of %q repeats %q", key, w)
			}
			seen[w] = true
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"w0", "w1", "w2", "w3"}, 0)
	counts := map[string]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		counts[r.Owner("local|"+ContainerName(i))]++
	}
	for w, c := range counts {
		if c < n/8 || c > n/2 {
			t.Fatalf("worker %s owns %d/%d keys — virtual nodes not balancing", w, c, n)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Containers: 4}).Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	if err := (Spec{Containers: 0}).Validate(); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if err := (Spec{Provider: "nope", Containers: 4}).Validate(); err == nil {
		t.Fatal("unknown provider accepted")
	}
	n := Spec{}.Normalize()
	if n.Provider != "local" || n.Seed != DefaultSeed || n.Tick != DefaultTick {
		t.Fatalf("normalize gave %+v", n)
	}
}

// TestSpecValidateBuildsNoProfile pins the per-shard validation cost:
// workers validate every shard's spec, so resolving a known provider must
// not build provider profiles (rule slices and all) just to check a name.
func TestSpecValidateBuildsNoProfile(t *testing.T) {
	for _, provider := range []string{"", "local", "local-lxc", "cc1", "cc5"} {
		spec := Spec{Provider: provider, Containers: 8}
		allocs := testing.AllocsPerRun(100, func() {
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Validate(provider %q) allocates %.0f times, want 0", provider, allocs)
		}
	}
}

// TestClusterMatchesSingleNode is the differential suite at the heart of
// the byte-identity contract: for every worker count and partition layout,
// the merged cluster result must serialize to exactly the bytes the
// single-node scan serializes to.
func TestClusterMatchesSingleNode(t *testing.T) {
	spec := Spec{Provider: "local", Containers: 10}
	ref, refGen, err := SingleNode(spec, 2)
	if err != nil {
		t.Fatalf("single-node reference: %v", err)
	}
	refJSON := mustJSON(t, ref)

	for _, workers := range []int{1, 2, 3, 5} {
		for _, shardSize := range []int{1, 3, 32} {
			t.Run(fmt.Sprintf("workers=%d/shard=%d", workers, shardSize), func(t *testing.T) {
				cfg := testConfig()
				cfg.ShardSize = shardSize
				coord, _ := newInProcCluster(t, workers, cfg)
				res, err := coord.Scan(context.Background(), spec)
				if err != nil {
					t.Fatalf("cluster scan: %v", err)
				}
				if res.Partial {
					t.Fatalf("healthy cluster produced partial result: %+v", res.Shards)
				}
				if got := mustJSON(t, res.Findings); !bytes.Equal(got, refJSON) {
					t.Fatalf("cluster result diverges from single-node\n got: %.200s\nwant: %.200s", got, refJSON)
				}
				if res.Generation != refGen {
					t.Fatalf("replica generation %d, single-node %d", res.Generation, refGen)
				}
				covered := 0
				for _, st := range res.Shards {
					covered += st.Containers
					if st.Status != ShardDone || st.Attempts != 1 {
						t.Fatalf("healthy shard %+v", st)
					}
				}
				if covered != spec.Containers {
					t.Fatalf("shards cover %d containers, want %d", covered, spec.Containers)
				}
			})
		}
	}
}

// TestClusterProviderDifferential sweeps a masked commercial profile —
// partitioning must not interact with provider masking rules.
func TestClusterProviderDifferential(t *testing.T) {
	spec := Spec{Provider: "cc1", Containers: 6, Seed: 7}
	ref, _, err := SingleNode(spec, 0)
	if err != nil {
		t.Fatalf("single-node reference: %v", err)
	}
	coord, _ := newInProcCluster(t, 3, testConfig())
	res, err := coord.Scan(context.Background(), spec)
	if err != nil {
		t.Fatalf("cluster scan: %v", err)
	}
	if got, want := mustJSON(t, res.Findings), mustJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatal("cc1 cluster result diverges from single-node")
	}
}

// TestClusterEpochDelta re-scans the same fleet at later ticks: workers
// must delta-advance their cached replicas (not rebuild) and stay
// byte-identical to fresh single-node scans at each tick.
func TestClusterEpochDelta(t *testing.T) {
	coord, _ := newInProcCluster(t, 2, testConfig())
	var lastGen uint64
	for _, tick := range []float64{30, 34, 41} {
		spec := Spec{Provider: "local", Containers: 6, Tick: tick}
		ref, _, err := SingleNode(spec, 0)
		if err != nil {
			t.Fatalf("single-node at tick %g: %v", tick, err)
		}
		res, err := coord.Scan(context.Background(), spec)
		if err != nil {
			t.Fatalf("cluster scan at tick %g: %v", tick, err)
		}
		if got, want := mustJSON(t, res.Findings), mustJSON(t, ref); !bytes.Equal(got, want) {
			t.Fatalf("tick %g: cluster result diverges from single-node", tick)
		}
		if res.Generation <= lastGen {
			t.Fatalf("tick %g: generation %d did not advance past %d", tick, res.Generation, lastGen)
		}
		lastGen = res.Generation
	}
	// The replicas were advanced in place: each worker still caches at most
	// one world for this spec identity.
	st := coord.Status()
	for _, w := range st.Workers {
		if w.ShardsDone == 0 {
			t.Fatalf("worker %s executed no shards across three ticks", w.ID)
		}
	}
}

// TestClusterRewindRejected: deterministic worlds only move forward.
func TestClusterRewindRejected(t *testing.T) {
	coord, _ := newInProcCluster(t, 1, testConfig())
	if _, err := coord.Scan(context.Background(), Spec{Containers: 2, Tick: 40}); err != nil {
		t.Fatalf("scan at tick 40: %v", err)
	}
	res, err := coord.Scan(context.Background(), Spec{Containers: 2, Tick: 35})
	if err == nil {
		t.Fatal("rewind scan succeeded")
	}
	if res == nil || !res.Partial {
		t.Fatalf("rewind scan should degrade to a partial/failed result, got %+v", res)
	}
}

// TestClusterPermanentWorkerLoss kills one worker *before* the scan: its
// shards must reassign along the ring walk and the merged result must
// still be byte-identical and complete.
func TestClusterPermanentWorkerLoss(t *testing.T) {
	spec := Spec{Provider: "local", Containers: 8}
	ref, _, err := SingleNode(spec, 0)
	if err != nil {
		t.Fatalf("single-node reference: %v", err)
	}
	cfg := testConfig()
	cfg.ShardSize = 2
	coord, tr := newInProcCluster(t, 3, cfg)

	// Pick a victim that owns at least one shard.
	victim := ""
	for _, sh := range coord.partition(spec) {
		victim = sh.worker()
		break
	}
	tr.Kill(victim)

	res, err := coord.Scan(context.Background(), spec)
	if err != nil {
		t.Fatalf("cluster scan with dead worker: %v", err)
	}
	if res.Partial {
		t.Fatalf("two live workers could not absorb the fleet: %+v", res.Shards)
	}
	if got, want := mustJSON(t, res.Findings), mustJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatal("result after reassignment diverges from single-node")
	}
	st := coord.Status()
	if st.Reassignments == 0 {
		t.Fatal("no reassignments recorded despite a dead owner")
	}
	for _, w := range st.Workers {
		if w.ID == victim && w.Alive {
			t.Fatalf("victim %s still marked alive", victim)
		}
	}
}

// TestClusterAllWorkersDead: bounded retries must terminate with failed
// shards and a scan-level error — graceful degradation, not a hang.
func TestClusterAllWorkersDead(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAttempts = 2
	coord, tr := newInProcCluster(t, 2, cfg)
	tr.Kill("worker-0")
	tr.Kill("worker-1")

	done := make(chan struct{})
	var res *FleetResult
	var err error
	go func() {
		res, err = coord.Scan(context.Background(), Spec{Containers: 4})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scan against a fully dead cluster hung")
	}
	if err == nil {
		t.Fatal("scan against a fully dead cluster reported success")
	}
	if res == nil || !res.Partial {
		t.Fatalf("expected partial result envelope, got %+v", res)
	}
	for _, st := range res.Shards {
		if st.Status != ShardFailed || st.Error == "" {
			t.Fatalf("shard should be terminally failed with an error, got %+v", st)
		}
		if st.Attempts > cfg.MaxAttempts {
			t.Fatalf("shard exceeded MaxAttempts: %+v", st)
		}
	}
}

// TestClusterRetryBudget: with a generous attempt bound, the
// deadline-aware retry budget is what terminates a shard facing a
// permanently failing worker.
func TestClusterRetryBudget(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	cfg := Config{
		ShardSize:    4,
		MaxAttempts:  100,
		RetryBackoff: 400 * time.Millisecond,
		RetryBudget:  time.Second,
		Now:          clock.Now,
		Sleep:        clock.Sleep,
	}
	tr := &failingTransport{err: errors.New("boom")}
	coord := NewCoordinator(cfg, tr, []string{"w0"}, nil)
	res, err := coord.Scan(context.Background(), Spec{Containers: 2})
	if err == nil {
		t.Fatal("permanently failing worker yielded success")
	}
	if !res.Partial {
		t.Fatal("result not marked partial")
	}
	st := res.Shards[0]
	if st.Status != ShardFailed {
		t.Fatalf("shard status %q, want failed", st.Status)
	}
	if !strings.Contains(st.Error, "retry budget") {
		t.Fatalf("terminal error should cite the retry budget, got %q", st.Error)
	}
	if st.Attempts >= cfg.MaxAttempts {
		t.Fatalf("budget should trip before MaxAttempts, took %d attempts", st.Attempts)
	}
}

// TestHeartbeatFailureDetection drives the probe loop directly with a fake
// clock: a worker is declared dead only after its last good beat ages past
// DeadAfter, and a successful probe revives it.
func TestHeartbeatFailureDetection(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	cfg := testConfig()
	cfg.HeartbeatEvery = 2 * time.Second
	cfg.DeadAfter = 6 * time.Second
	cfg.Now = clock.Now
	coord, tr := newInProcCluster(t, 2, cfg)

	coord.probeAll()
	for _, w := range coord.Status().Workers {
		if !w.Alive || w.LastBeatAgeSeconds != 0 {
			t.Fatalf("after clean probe: %+v", w)
		}
	}

	tr.Kill("worker-1")
	clock.advance(2 * time.Second)
	coord.probeAll() // within grace: still alive
	if st := statusOf(t, coord, "worker-1"); !st.Alive {
		t.Fatal("worker-1 declared dead inside the DeadAfter grace window")
	}
	clock.advance(8 * time.Second)
	coord.probeAll() // past deadline: dead
	if st := statusOf(t, coord, "worker-1"); st.Alive {
		t.Fatal("worker-1 still alive after its beat aged past DeadAfter")
	}
	if st := statusOf(t, coord, "worker-0"); !st.Alive {
		t.Fatal("healthy worker-0 collaterally declared dead")
	}

	tr.Revive("worker-1")
	clock.advance(2 * time.Second)
	coord.probeAll()
	if st := statusOf(t, coord, "worker-1"); !st.Alive {
		t.Fatal("worker-1 not revived by a successful probe")
	}
}

// TestCoordinatorStartStop exercises the real ticker loop briefly.
func TestCoordinatorStartStop(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatEvery = 5 * time.Millisecond
	coord, _ := newInProcCluster(t, 2, cfg)
	coord.Start()
	time.Sleep(30 * time.Millisecond)
	coord.Stop()
	coord.Stop() // idempotent
	for _, w := range coord.Status().Workers {
		if w.LastBeatAgeSeconds < 0 {
			t.Fatalf("heartbeat loop never probed %s", w.ID)
		}
	}
}

// TestNodeStatus covers the role envelope the HTTP surface serves.
func TestNodeStatus(t *testing.T) {
	if st := NewStandaloneNode().Status(); st.Role != RoleStandalone || st.Worker != nil || st.Cluster != nil {
		t.Fatalf("standalone status %+v", st)
	}
	w := NewWorker("w0", NewLocalWorlds(0))
	if st := NewWorkerNode(w).Status(); st.Role != RoleWorker || st.Worker == nil || st.Worker.WorkerID != "w0" {
		t.Fatalf("worker status %+v", st)
	}
	coord, _ := newInProcCluster(t, 2, testConfig())
	if st := NewCoordinatorNode(coord).Status(); st.Role != RoleCoordinator || st.Cluster == nil || len(st.Cluster.Workers) != 2 {
		t.Fatalf("coordinator status %+v", st)
	}
	var nilNode *Node
	if nilNode.Role() != RoleStandalone {
		t.Fatal("nil node should read as standalone")
	}
}

// TestLocalWorldsEviction: the replica cache is bounded LRU.
func TestLocalWorldsEviction(t *testing.T) {
	lw := NewLocalWorlds(2)
	for i := 1; i <= 3; i++ {
		if _, err := lw.Fleet(Spec{Containers: i}); err != nil {
			t.Fatalf("fleet %d: %v", i, err)
		}
	}
	if got := lw.Len(); got != 2 {
		t.Fatalf("cache holds %d worlds, cap 2", got)
	}
}

// TestSharedWorldsMismatch: the shared topology rejects foreign specs.
func TestSharedWorldsMismatch(t *testing.T) {
	w, err := BuildFleetWorld(Spec{Containers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSharedWorlds(w)
	if _, err := sw.Fleet(Spec{Containers: 2}); err != nil {
		t.Fatalf("matching spec rejected: %v", err)
	}
	if _, err := sw.Fleet(Spec{Containers: 3}); err == nil {
		t.Fatal("foreign spec accepted by shared world")
	}
}

// TestWorkerExecShardErrors covers worker-side validation.
func TestWorkerExecShardErrors(t *testing.T) {
	w := NewWorker("w0", NewLocalWorlds(0))
	if _, err := w.ExecShard(context.Background(), &ShardRequest{Spec: Spec{Containers: 0}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := w.ExecShard(context.Background(), &ShardRequest{
		Spec: Spec{Containers: 2}, Containers: []int{5},
	}); err == nil {
		t.Fatal("out-of-range container index accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.ExecShard(ctx, &ShardRequest{Spec: Spec{Containers: 2}, Containers: []int{0}}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// fakeClock is a mutable wall clock whose Sleep advances time instead of
// waiting — retry budget tests run in microseconds of real time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.advance(d)
	return ctx.Err()
}

// failingTransport fails every call — the permanently dead fleet.
type failingTransport struct{ err error }

func (f *failingTransport) ExecShard(context.Context, string, *ShardRequest) (*ShardResult, error) {
	return nil, f.err
}

func (f *failingTransport) Ping(context.Context, string) (*Heartbeat, error) {
	return nil, f.err
}

func statusOf(t *testing.T, c *Coordinator, id string) WorkerStatus {
	t.Helper()
	for _, w := range c.Status().Workers {
		if w.ID == id {
			return w
		}
	}
	t.Fatalf("worker %s not in status", id)
	return WorkerStatus{}
}

// TestContainerNameMatchesFormat pins ContainerName to its documented
// form, "tenant-" and the index zero-padded to five digits.
func TestContainerNameMatchesFormat(t *testing.T) {
	for _, i := range []int{0, 1, 9, 10, 99, 100, 4242, 9999, 10000, 54321, 99999, 100000, 1234567, math.MaxInt} {
		if got, want := ContainerName(i), fmt.Sprintf("tenant-%05d", i); got != want {
			t.Fatalf("ContainerName(%d) = %q, want %q", i, got, want)
		}
	}
}

// sameLayout reports whether two partitions hold the same shards: index,
// containers and failover walk, in order.
func sameLayout(a, b []*shardState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].idx != b[i].idx || !slices.Equal(a[i].containers, b[i].containers) || !slices.Equal(a[i].seq, b[i].seq) {
			return false
		}
	}
	return true
}

// TestPartitionMemoMatchesFresh: the memoized layout equals a freshly
// computed one for every (provider, fleet size, ShardSize) visited, also
// when the specs alternate, and a spec differing only in seed or tick
// reuses it.
func TestPartitionMemoMatchesFresh(t *testing.T) {
	for _, size := range []int{1, 3, 32} {
		cfg := testConfig()
		cfg.ShardSize = size
		coord, _ := newInProcCluster(t, 3, cfg)
		specs := []Spec{
			{Provider: "local", Containers: 7},
			{Provider: "cc5", Containers: 7},
			{Provider: "local", Containers: 40},
			{Provider: "local", Containers: 7, Seed: 9, Tick: 45},
			{Containers: 1},
		}
		for round := 0; round < 2; round++ {
			for _, spec := range specs {
				fresh := NewCoordinator(cfg, nil, coord.ring.Workers(), nil).partition(spec)
				for _, got := range [][]*shardState{coord.partition(spec), coord.partition(spec)} {
					if !sameLayout(got, fresh) {
						t.Fatalf("ShardSize %d, spec %+v: memoized layout differs from a fresh one", size, spec)
					}
				}
			}
		}
	}
}

// TestPartitionSharesNoMutableState: two scans' shards are distinct
// shardStates; dispatching one (attempts, requeues, walk position, result)
// leaves the other and the memoized layout as they were.
func TestPartitionSharesNoMutableState(t *testing.T) {
	cfg := testConfig()
	cfg.ShardSize = 2
	coord, _ := newInProcCluster(t, 3, cfg)
	spec := Spec{Provider: "local", Containers: 9}
	first := coord.partition(spec)
	for _, sh := range first {
		sh.attempts, sh.requeues, sh.reassigned, sh.seqPos = 3, 2, 1, 1
		sh.status, sh.err, sh.result = ShardFailed, errors.New("lost"), &ShardResult{}
	}
	second := coord.partition(spec)
	for i, sh := range second {
		if sh == first[i] {
			t.Fatalf("shard %d: two scans got the same shardState", i)
		}
		if sh.attempts != 0 || sh.requeues != 0 || sh.reassigned != 0 || sh.seqPos != 0 ||
			sh.status != "" || sh.err != nil || sh.result != nil || sh.idx != i {
			t.Fatalf("shard %d: second scan starts from another scan's state %+v", i, *sh)
		}
	}
	if fresh := NewCoordinator(cfg, nil, coord.ring.Workers(), nil).partition(spec); !sameLayout(second, fresh) {
		t.Fatal("dispatch state of one scan changed the memoized layout")
	}
	// A whole scan over the memoized layout still lands every shard.
	for range 2 {
		res, err := coord.Scan(context.Background(), spec)
		if err != nil || res.Partial {
			t.Fatalf("scan over the memoized layout: err=%v partial=%v", err, res != nil && res.Partial)
		}
	}
}
