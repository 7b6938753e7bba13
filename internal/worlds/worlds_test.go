package worlds

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentGetsBuildOnce: N racing Gets of one key run one build and
// all see its value; the losers count as hits.
func TestConcurrentGetsBuildOnce(t *testing.T) {
	const n = 32
	c := New[string, *int](4)
	var builds atomic.Int32
	release := make(chan struct{})
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Get("k", func() (*int, error) {
				builds.Add(1)
				<-release // hold the build open so the others pile up
				x := 42
				return &x, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	for {
		if hits, _ := c.Stats(); hits == n-1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("%d builds, want 1", b)
	}
	for i, v := range got {
		if v != got[0] || *v != 42 {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, v, got[0])
		}
	}
	if hits, misses := c.Stats(); hits != n-1 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, n-1)
	}
}

// TestFailedBuildIsRetried: an error is returned, not cached; the next Get
// builds again.
func TestFailedBuildIsRetried(t *testing.T) {
	c := New[int, string](2)
	boom := errors.New("boom")
	if _, err := c.Get(1, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("first Get: err %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Fatalf("failed build kept: Len %d", c.Len())
	}
	v, err := c.Get(1, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry: %q, %v", v, err)
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", hits, misses)
	}
}

// TestWaitersShareFailure: callers queued behind a failing build get its
// error, and a panicking build fails its waiters instead of hanging them.
func TestWaitersShareFailure(t *testing.T) {
	c := New[int, int](2)
	started, release := make(chan struct{}), make(chan struct{})
	boom := errors.New("boom")
	var buildErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, buildErr = c.Get(1, func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
	}()
	<-started
	var waitErr error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		_, waitErr = c.Get(1, func() (int, error) { t.Error("waiter built"); return 0, nil })
	}()
	for {
		if hits, _ := c.Stats(); hits == 1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	<-done
	<-waited
	if !errors.Is(buildErr, boom) || !errors.Is(waitErr, boom) {
		t.Fatalf("builder err %v, waiter err %v; want %v for both", buildErr, waitErr, boom)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic was swallowed")
			}
		}()
		_, _ = c.Get(2, func() (int, error) { panic("build") })
	}()
	if _, err := c.Get(2, func() (int, error) { return 7, nil }); err != nil {
		t.Fatalf("Get after a panicked build: %v", err)
	}
}

// TestLRUOrder: a hit refreshes its key, and the least recently used key
// is the one forgotten when a new key overflows the cap.
func TestLRUOrder(t *testing.T) {
	c := New[int, int](3)
	builds := 0
	get := func(k int) {
		t.Helper()
		v, err := c.Get(k, func() (int, error) { builds++; return k * 10, nil })
		if err != nil || v != k*10 {
			t.Fatalf("Get(%d) = %d, %v", k, v, err)
		}
	}
	get(1)
	get(2)
	get(3)
	get(1) // 2 is now least recently used
	get(4) // evicts 2
	if c.Len() != 3 {
		t.Fatalf("Len %d, want cap 3", c.Len())
	}
	if got := c.Values(); len(got) != 3 || got[0] != 40 || got[1] != 10 || got[2] != 30 {
		t.Fatalf("Values (most recent first) = %v, want [40 10 30]", got)
	}
	before := builds
	get(1)
	get(3)
	get(4)
	if builds != before {
		t.Fatalf("resident keys rebuilt: %d builds", builds-before)
	}
	get(2)
	if builds != before+1 {
		t.Fatal("evicted key 2 was not rebuilt")
	}
	if hits, misses := c.Stats(); hits != 4 || misses != 5 {
		t.Fatalf("hits/misses = %d/%d, want 4/5", hits, misses)
	}
}

// TestEvictedValueStaysUsable: eviction only forgets. A holder keeps a
// working value, and a later Get of the key builds a fresh one.
func TestEvictedValueStaysUsable(t *testing.T) {
	type world struct{ ticks int }
	c := New[string, *world](1)
	held, err := c.Get("a", func() (*world, error) { return &world{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("b", func() (*world, error) { return &world{}, nil }); err != nil {
		t.Fatal(err)
	}
	held.ticks++ // still ours to use
	again, err := c.Get("a", func() (*world, error) { return &world{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if again == held || again.ticks != 0 || held.ticks != 1 {
		t.Fatalf("evicted value shared or disturbed: held %+v, rebuilt %+v", held, again)
	}
}
