package simclock

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// phaseRecorder appends a tag to a shared log, to observe the order in
// which the phases run.
type phaseRecorder struct {
	log *[]string
	tag string
}

func (r phaseRecorder) Tick(now, dt float64) {
	*r.log = append(*r.log, r.tag)
}

func newRecorded() (*Clock, *[]string) {
	c := New()
	log := []string{}
	c.OnTick(phaseRecorder{&log, "pre"})
	for s := 0; s < 3; s++ {
		c.OnShardTick(s, phaseRecorder{&log, fmt.Sprintf("s%d.a", s)})
		c.OnShardTick(s, phaseRecorder{&log, fmt.Sprintf("s%d.b", s)})
	}
	c.OnPostTick(phaseRecorder{&log, "post"})
	return c, &log
}

// TestShardPhaseStructure asserts the tick pipeline's phase ordering: the
// pre-phase ticker runs first, every shard ticker runs next (a before b
// within each shard), and the post-phase ticker runs last.
func TestShardPhaseStructure(t *testing.T) {
	c, log := newRecorded()
	c.Advance(1)
	got := *log
	if len(got) != 8 {
		t.Fatalf("%d ticks (%v), want 8", len(got), got)
	}
	if got[0] != "pre" {
		t.Errorf("first tick %q, want pre", got[0])
	}
	if got[7] != "post" {
		t.Errorf("last tick %q, want post", got[7])
	}
	pos := map[string]int{}
	for i, tag := range got {
		pos[tag] = i
	}
	for s := 0; s < 3; s++ {
		a, b := fmt.Sprintf("s%d.a", s), fmt.Sprintf("s%d.b", s)
		if pos[a] >= pos[b] {
			t.Errorf("shard %d ran %q before %q", s, b, a)
		}
	}
}

// TestShardSerialOrderIsRegistrationOrder pins the schedule: shards run in
// index order, so a sharded clock is observationally identical to the
// pre-shard OnTick world.
func TestShardSerialOrderIsRegistrationOrder(t *testing.T) {
	c, log := newRecorded()
	c.Advance(1)
	want := "pre,s0.a,s0.b,s1.a,s1.b,s2.a,s2.b,post"
	if got := strings.Join(*log, ","); got != want {
		t.Fatalf("serial order %q, want %q", got, want)
	}
}

func TestOnShardTickPanicsOnNegativeShard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OnShardTick(-1, …) should panic")
		}
	}()
	New().OnShardTick(-1, TickerFunc(func(_, _ float64) {}))
}

// TestShardPanicPropagates asserts a panicking shard ticker surfaces to the
// Advance caller.
func TestShardPanicPropagates(t *testing.T) {
	c := New()
	for s := 0; s < 4; s++ {
		s := s
		c.OnShardTick(s, TickerFunc(func(_, _ float64) {
			if s == 2 {
				panic("shard 2 exploded")
			}
		}))
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("shard panic did not propagate")
		}
	}()
	c.Advance(1)
}

// TestAdvanceAllocatesNothing: a step of a multi-shard clock allocates
// nothing at any GOMAXPROCS. Advance is the innermost loop of every
// experiment, so per-step garbage would show up in every sweep.
func TestAdvanceAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := New()
	var ticks int
	for s := 0; s < 8; s++ {
		c.OnShardTick(s, TickerFunc(func(_, _ float64) { ticks++ }))
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Advance(1) }); allocs != 0 {
		t.Fatalf("Advance(1) over 8 shards allocates %.1f objects per step, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("no shard ticked")
	}
}
