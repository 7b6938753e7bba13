// Package simclock provides the deterministic simulated clock that drives
// the whole reproduction. Real time never leaks into the simulation: hosts,
// workloads, power models, attacks, and defenses all advance in lockstep via
// Clock.Advance, which makes every experiment in EXPERIMENTS.md exactly
// reproducible from its seed.
//
// The clock supports two cooperating mechanisms:
//
//   - Tickers: components registered with OnTick receive every time step and
//     integrate continuous state (energy counters, scheduler accounting).
//   - Events: one-shot callbacks scheduled at absolute simulated times
//     (attack launches, workload phase changes), dispatched in time order and,
//     for equal times, in scheduling order.
//
// # Sharded ticking
//
// A step runs in three phases (see ARCHITECTURE.md, "tick pipeline"):
// serial pre-phase tickers (OnTick), then per-shard tickers (OnShardTick)
// in shard-index order, and finally serial post-phase tickers
// (OnPostTick). Within one shard, tickers run in registration order.
//
// The shard phase is a serial loop. Shards still exist because they fix
// the tick order and name the per-server unit of work: a shard is one
// server, whose scheduler/power/chaos state is disjoint from every other
// server's, and pre- and post-phase tickers act as barriers around all of
// them, so cross-server readers (rack breakers) observe every server fully
// ticked, in a fixed order. The program's parallelism lives one level up,
// across independent worlds, so Advance starts no goroutine and allocates
// nothing.
package simclock

import (
	"container/heap"
	"fmt"
)

// Ticker is implemented by components that integrate state over simulated
// time. Tick is called after the clock has advanced to now, with dt the size
// of the step just taken (dt > 0).
type Ticker interface {
	Tick(now, dt float64)
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(now, dt float64)

// Tick implements Ticker.
func (f TickerFunc) Tick(now, dt float64) { f(now, dt) }

type event struct {
	at  float64
	seq int
	fn  func(now float64)
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Clock is a deterministic simulated clock. The zero value is ready to use
// and starts at time 0. Clock is not safe for concurrent use: Advance, Run,
// At, and the registration methods must all be called from one goroutine.
type Clock struct {
	clockState

	// Ticker registrations are structural: rebuilt only with the world.
	// shards[i] holds the tickers of shard i in registration order.
	tickers []Ticker
	shards  [][]Ticker
	post    []Ticker
}

// clockState is a Clock's mutable state.
type clockState struct {
	now    float64
	events eventQueue
	seq    int
}

// New returns a Clock starting at t=0 seconds.
func New() *Clock { return &Clock{} }

// Now returns the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// OnTick registers t to receive every subsequent time step during the
// serial pre-phase. Pre-phase tickers run in registration order, before any
// shard ticker.
func (c *Clock) OnTick(t Ticker) {
	c.tickers = append(c.tickers, t)
}

// OnShardTick registers t on shard (a small non-negative index). Shards
// tick in index order and the tickers of one shard in registration order;
// tickers on different shards must not share mutable state. The shard
// phase runs after every OnTick ticker and before every OnPostTick ticker.
func (c *Clock) OnShardTick(shard int, t Ticker) {
	if shard < 0 {
		panic(fmt.Sprintf("simclock: OnShardTick(%d): shard must be non-negative", shard))
	}
	for len(c.shards) <= shard {
		c.shards = append(c.shards, nil)
	}
	c.shards[shard] = append(c.shards[shard], t)
}

// OnPostTick registers t to run in the serial post-phase of every step,
// after all shards have completed. Post-phase tickers run in registration
// order and may safely read state written by any shard.
func (c *Clock) OnPostTick(t Ticker) {
	c.post = append(c.post, t)
}

// At schedules fn to run when simulated time reaches at seconds. Scheduling
// in the past (at <= Now) fires on the next Advance. Events at the same time
// run in scheduling order, before tickers for the step that reaches them.
func (c *Clock) At(at float64, fn func(now float64)) {
	c.seq++
	heap.Push(&c.events, &event{at: at, seq: c.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (c *Clock) After(d float64, fn func(now float64)) {
	if d < 0 {
		d = 0
	}
	c.At(c.now+d, fn)
}

// Advance moves simulated time forward by dt seconds, firing due events and
// then tickers once for the whole step. It panics on non-positive dt: a
// zero-length or backwards step is always a caller bug and would silently
// corrupt integrated quantities like energy counters.
func (c *Clock) Advance(dt float64) {
	if dt <= 0 {
		panic(fmt.Sprintf("simclock: Advance(%g): step must be positive", dt))
	}
	target := c.now + dt
	for c.events.Len() > 0 && c.events[0].at <= target {
		e := heap.Pop(&c.events).(*event)
		if e.at > c.now {
			c.now = e.at
		}
		e.fn(c.now)
	}
	c.now = target
	// Phase 1: serial pre-phase (shared drivers, e.g. the flash-crowd
	// generator, whose RNG draws must happen once, in a fixed order).
	for _, t := range c.tickers {
		t.Tick(c.now, dt)
	}
	// Phase 2: shards, in index order.
	for _, shard := range c.shards {
		for _, t := range shard {
			t.Tick(c.now, dt)
		}
	}
	// Phase 3: serial post-phase (cross-shard readers, e.g. rack breakers
	// summing server power in fixed order).
	for _, t := range c.post {
		t.Tick(c.now, dt)
	}
}

// Run advances the clock in uniform steps of dt until Now reaches until. The
// final step is truncated so the clock lands exactly on until.
//
// When until is not an exact multiple of dt in floating point (e.g.
// Run(1.0, 0.1)), the accumulated sum of steps can undershoot until by a
// few ULPs, which would otherwise produce a final micro-step smaller than
// dt×1e-9 — physically meaningless, numerically hazardous for integrators
// dividing by dt, and historically the source of a denormal-width Advance.
// Run folds any residual smaller than that threshold into the preceding
// step instead: the last full step is stretched to land exactly on until.
// For horizons that ARE exact multiples of dt (every shipping experiment)
// this changes nothing, bit for bit.
func (c *Clock) Run(until, dt float64) {
	if dt <= 0 {
		panic(fmt.Sprintf("simclock: Run with step %g: step must be positive", dt))
	}
	eps := dt * 1e-9
	for c.now < until {
		rem := until - c.now
		if rem <= dt || rem-dt < eps {
			// Final step (possibly stretched by a sub-epsilon residue that
			// the next iteration would otherwise turn into a denormal
			// micro-step): take it all and land exactly on until. The snap
			// below erases the ≤1-ULP rounding error of c.now += rem, which
			// would otherwise re-enter the loop with a ~1e-16 step.
			c.Advance(rem)
			c.now = until
			return
		}
		c.Advance(dt)
	}
}

// Pending returns the number of not-yet-fired scheduled events, which tests
// use to assert that experiments drain their schedules.
func (c *Clock) Pending() int { return c.events.Len() }
