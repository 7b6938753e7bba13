// Package fastrand provides a deterministic pseudo-random generator whose
// output stream is bit-identical to the standard library's
// math/rand.New(rand.NewSource(seed)) generator, but without interface
// dispatch or locking, and with all methods eligible for inlining into hot
// loops.
//
// # Why a replica instead of math/rand
//
// The simulation kernel draws roughly 850 jitter values per server tick; a
// Fig. 3 world performs on the order of 10^8 draws. Every one of those
// draws must reproduce math/rand's sequence exactly, because the values
// feed rendered pseudo-file counters that are covered by the repo's
// byte-identity contract. math/rand's *Rand routes every call through a
// Source64 interface and (for the default source) a mutex-free but
// devirtualization-hostile call chain. This package re-implements the same
// additive lagged-Fibonacci generator (x_i = x_{i-273} + x_{i-607} mod 2^64)
// as a concrete struct with value-receiver-free, branch-light methods.
//
// # Seeding
//
// math/rand seeds its 607-word state vector as vec[i] = s[i] XOR
// rngCooked[i], where s is a stream drawn from the seed by the Lehmer
// generator x -> 48271·x mod (2^31-1) (seedrand) and rngCooked is a
// precomputed table that is not exported. The package recovers that table
// once, at init: it reads the state of one stdlib source through its
// outputs (sourceState) and XORs it with that seed's own seedrand stream.
// New then seeds directly: it XORs the table with the seed's seedrand
// stream, computed with Mersenne reductions in uint64 instead of
// divisions — no stdlib source, and one allocation, per generator.
//
// Equivalence for every exported method is enforced by property tests in
// fastrand_test.go across seeds and interleaved method sequences.
//
// # Concurrency
//
// A *Rand is not safe for concurrent use. The simulation substrate gives
// each server its own generator and ticks servers on disjoint shards, so
// no sharing occurs (see ARCHITECTURE.md, "tick pipeline").
package fastrand

import "math/rand"

const (
	rngLen = 607
	rngTap = 273
)

// Rand is a drop-in, stream-identical replacement for
// *math/rand.Rand created via rand.New(rand.NewSource(seed)). It is a
// plain value with no pointers: a copy saves the full stream position (the
// lag window, the tap/feed indices and Read's byte carry), and assigning
// the copy back rewinds the stream. World snapshots hold RNGs by value in
// their state structs and rely on exactly this.
type Rand struct {
	tap  int32
	feed int32
	vec  [rngLen]uint64

	// readVal/readPos implement Read's 7-bytes-per-Int63 buffering,
	// mirroring math/rand.Rand exactly.
	readVal int64
	readPos int8
}

// cooked is math/rand's rngCooked table, recovered at init from the
// state of the stdlib source for seed 1.
var cooked = func() [rngLen]uint64 {
	const seed = 1
	vec := sourceState(rand.NewSource(seed).(rand.Source64))
	xorSeedStream(&vec, seed)
	return vec
}()

// New returns a generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	// math/rand's Seed leaves tap = 0 and feed = rngLen - rngTap.
	r := &Rand{vec: cooked, feed: rngLen - rngTap}
	xorSeedStream(&r.vec, seed)
	return r
}

// xorSeedStream XORs into vec the words math/rand's Seed XORs with
// rngCooked. Seed reduces the seed into [1, 2^31-1), steps it 20 times by
// seedrand (x -> 48271·x mod 2^31-1), then takes three steps per word w:
// w = x1<<40 ^ x2<<20 ^ x3, truncated to 64 bits. Here each step count is
// one multiplication by a power of 48271, so the three steps of a word do
// not wait on each other and only x3 carries on to the next word.
func xorSeedStream(vec *[rngLen]uint64, seed int64) {
	const (
		p   = 1<<31 - 1
		a1  = 48271
		a2  = a1 * a1 % p
		a3  = a2 * a1 % p
		a4  = a2 * a2 % p
		a20 = a4 * a4 % p * a4 % p * a4 % p * a4 % p
	)
	seed %= p
	if seed < 0 {
		seed += p
	}
	if seed == 0 {
		seed = 89482311
	}
	x := mulmod(uint64(seed), a20)
	for i := range vec {
		x1, x2, x3 := mulmod(x, a1), mulmod(x, a2), mulmod(x, a3)
		vec[i] ^= x1<<40 ^ x2<<20 ^ x3
		x = x3
	}
}

// mulmod returns c·x mod 2^31-1 for x, c below 2^31-1. The product stays
// below 2^62, so two Mersenne folds and one conditional subtraction reduce
// it exactly, with no division.
func mulmod(x, c uint64) uint64 {
	const p = 1<<31 - 1
	t := x * c
	t = t&p + t>>31
	t = t&p + t>>31
	if t >= p {
		t -= p
	}
	return t
}

// sourceState returns the seeded state of a fresh stdlib source, read
// through its outputs.
func sourceState(src rand.Source64) (vec [rngLen]uint64) {
	// After Seed, tap = 0 and feed = rngLen - rngTap = 334. Each Uint64()
	// first decrements both (wrapping), computes x = vec[feed] + vec[tap],
	// stores x at vec[feed] and returns it. So output i sits at index
	// (333 - i) mod 607, and after 607 outputs tap/feed are back at 0/334
	// — the drawn window IS the state.
	for i := 0; i < rngLen; i++ {
		j := 333 - i
		if j < 0 {
			j += rngLen
		}
		vec[j] = src.Uint64()
	}
	// Undo the 607 draws to recover the pre-draw state. Reverse of a
	// forward step (with indices currently at post-step positions):
	// vec[feed] -= vec[tap], then advance tap and feed by one; 607 steps
	// bring both back to 0/334.
	tap, feed := 0, rngLen-rngTap
	for i := 0; i < rngLen; i++ {
		vec[feed] -= vec[tap]
		tap++
		if tap >= rngLen {
			tap -= rngLen
		}
		feed++
		if feed >= rngLen {
			feed -= rngLen
		}
	}
	return vec
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	tap, feed := r.tap-1, r.feed-1
	if tap < 0 {
		tap += rngLen
	}
	if feed < 0 {
		feed += rngLen
	}
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	r.tap, r.feed = tap, feed
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Uint32 returns a pseudo-random 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 returns a pseudo-random number in the half-open interval
// [0.0, 1.0), matching math/rand's retry-on-1.0 behavior exactly.
//
// The one-in-2^10 retry (float64(2^63-1) and neighbors round up to 2^63,
// so f==1 is reachable) lives in a separate method: keeping the loop out
// of this body keeps Float64 — and its callers like kernel.(*Kernel).jitter
// — within the compiler's inlining budget, which matters at ~850 draws per
// server tick.
func (r *Rand) Float64() float64 {
	// math/rand computes Int63() / 2^63; multiplying by the exactly
	// representable 2^-63 is bit-identical (scaling by a power of two is
	// exact, and no draw can reach the subnormal range) and trades the
	// ~4× slower FDIV for an FMUL.
	f := float64(r.Int63()) * (1.0 / (1 << 63))
	if f == 1 {
		return r.float64Retry()
	}
	return f
}

// float64Retry redraws until the scaled value is below 1. Split out of
// Float64 so the hot path has no loop (see Float64).
func (r *Rand) float64Retry() float64 {
	for {
		f := float64(r.Int63()) * (1.0 / (1 << 63))
		if f != 1 {
			return f
		}
	}
}

// AddScaledJitterRows draws cols*len(scales) consecutive Float64 values f
// into a struct-of-arrays block: dst holds len(scales) consecutive rows of
// cols elements each (len(dst) == cols*len(scales)), and row r receives
//
//	dst[r*cols+c] += scales[r] * (1 + (f*2-1)*amp)
//
// with draws consumed in row-major order — exactly the stream positions of
// len(dst) Float64 calls. This is the simulation kernel's per-CPU jitter
// fan-out (the expression is kernel.jitter's body verbatim, with the row's
// common factor hoisted as the scale). Fusing the draw with the accumulate
// keeps tap/feed in registers across the whole block (Float64 must commit
// them to memory after every draw) and skips the scratch-buffer round trip
// a fill-then-consume pair would cost; it turns the kernel tick's widest
// fan-out — 17 interrupt/softirq rows per server — into a single pass over
// one contiguous backing array.
func (r *Rand) AddScaledJitterRows(dst []float64, cols int, scales []float64, amp float64) {
	if len(dst) != cols*len(scales) {
		panic("fastrand: AddScaledJitterRows rows/cols mismatch")
	}
	tap, feed := int(r.tap), int(r.feed)
	if uint(tap) >= rngLen || uint(feed) >= rngLen {
		panic("fastrand: corrupt generator state")
	}
	// Chunked draw loop: between wraps both indices only decrement, so a
	// run of min(tap, feed) draws needs no wrap branches at all. The loop
	// handles the (rare) wrap step one draw at a time; the chunk loop is
	// pure decrement/load/FMA traffic.
	i := 0
	for row := 0; row < len(scales); row++ {
		scale := scales[row]
		end := i + cols
		for i < end {
			n := tap
			if feed < n {
				n = feed
			}
			if rem := end - i; n > rem {
				n = rem
			}
			if n <= 0 {
				// One draw with full wrap handling (an index at 0 wraps to
				// rngLen-1 because the decrement happens before use).
				tap--
				if tap < 0 {
					tap = rngLen - 1
				}
				feed--
				if feed < 0 {
					feed = rngLen - 1
				}
				x := r.vec[feed] + r.vec[tap]
				r.vec[feed] = x
				// Identical to Float64: Int63 scaling with retry-on-1.0; a
				// rejected draw simply doesn't advance i.
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f != 1 {
					dst[i] += scale * (1 + (f*2-1)*amp)
					i++
				}
				continue
			}
			// Reslicing the two lag windows to exactly n elements lets the
			// compiler drop the per-draw vec bounds checks: m runs [0,n)
			// over slices of length n. The windows alias the same backing
			// array at the generator's tap distance, so writes at higher m
			// are read back at lower m, as the lagged recurrence requires.
			// The destination window is pre-sliced to n too, and the loop
			// runs optimistically: with no retry, draw n-1-j lands in d[j],
			// a pure induction-variable pairing the compiler proves in
			// bounds on both sides. A retry (probability ~2^-54 per draw)
			// breaks out with the stream position reconciled and lets the
			// outer loop re-chunk — same draws, same order, same sums.
			vt := r.vec[tap-n : tap][:n]
			vf := r.vec[feed-n : feed][:n]
			d := dst[i : i+n][:n]
			j := 0
			for ; j < n; j++ {
				m := n - 1 - j
				x := vf[m] + vt[m]
				vf[m] = x
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f == 1 {
					break
				}
				d[j] += scale * (1 + (f*2-1)*amp)
			}
			if j == n {
				i += n
				tap -= n
				feed -= n
				continue
			}
			// Retry at draw j: that draw advanced the lag window but filled
			// no slot; j slots were filled before it.
			i += j
			tap -= j + 1
			feed -= j + 1
		}
	}
	r.tap, r.feed = int32(tap), int32(feed)
}

// AddScaledJitter2Rows is the paired-stream variant of
// AddScaledJitterRows: ab holds len(scaleA) row *pairs* — for pair p, an
// "a" row at ab[(2p)*cols:] and a "b" row at ab[(2p+1)*cols:] — and each
// column of each pair draws two consecutive values f1, f2:
//
//	a[c] += scaleA[p] * (1 + (f1*2-1)*amp)
//	b[c] += scaleB[p] * (1 + (f2*2-1)*amp)
//
// consuming exactly the stream of len(ab) Float64 calls, pair by pair and
// a-then-b per column. The kernel's cpuidle update (4 C-states ×
// usage/time rows) is the intended caller.
func (r *Rand) AddScaledJitter2Rows(ab []float64, cols int, scaleA, scaleB []float64, amp float64) {
	if len(scaleA) != len(scaleB) {
		panic("fastrand: AddScaledJitter2Rows scale length mismatch")
	}
	if len(ab) != 2*cols*len(scaleA) {
		panic("fastrand: AddScaledJitter2Rows rows/cols mismatch")
	}
	tap, feed := int(r.tap), int(r.feed)
	if uint(tap) >= rngLen || uint(feed) >= rngLen {
		panic("fastrand: corrupt generator state")
	}
	for p := 0; p < len(scaleA); p++ {
		a := ab[2*p*cols : (2*p+1)*cols]
		b := ab[(2*p+1)*cols : (2*p+2)*cols]
		sa, sb := scaleA[p], scaleB[p]
		// Two-phase accumulator: phase 0 holds the pending "a" draw (f1)
		// until phase 1 completes the pair and commits both accumulates in
		// a-then-b order. The chunk budget n counts DRAWS (not pairs), so a
		// mid-chunk retry can never overrun the wrap-free run.
		i := 0
		phase := 0
		var f1 float64
		for i < cols {
			n := tap
			if feed < n {
				n = feed
			}
			if rem := 2*(cols-i) - phase; n > rem {
				n = rem
			}
			if n <= 0 {
				tap--
				if tap < 0 {
					tap = rngLen - 1
				}
				feed--
				if feed < 0 {
					feed = rngLen - 1
				}
				x := r.vec[feed] + r.vec[tap]
				r.vec[feed] = x
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f == 1 {
					continue
				}
				if phase == 0 {
					f1, phase = f, 1
				} else {
					a[i] += sa * (1 + (f1*2-1)*amp)
					b[i] += sb * (1 + (f*2-1)*amp)
					i++
					phase = 0
				}
				continue
			}
			// Resliced lag windows as in AddScaledJitterRows: bounds-check-free
			// draws, aliasing preserved through the shared backing array.
			vt := r.vec[tap-n : tap][:n]
			vf := r.vec[feed-n : feed][:n]
			for m := n - 1; m >= 0; m-- {
				x := vf[m] + vt[m]
				vf[m] = x
				f := float64(int64(x&(1<<63-1))) * (1.0 / (1 << 63))
				if f == 1 {
					continue
				}
				if phase == 0 {
					f1, phase = f, 1
				} else {
					a[i] += sa * (1 + (f1*2-1)*amp)
					b[i] += sb * (1 + (f*2-1)*amp)
					i++
					phase = 0
				}
			}
			tap -= n
			feed -= n
		}
	}
	r.tap, r.feed = int32(tap), int32(feed)
}

// Int31n returns a non-negative pseudo-random number in [0,n).
// It panics if n <= 0. The rejection-sampling structure matches
// math/rand exactly so the consumed stream is identical.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Int63n returns a non-negative pseudo-random number in [0,n).
// It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a non-negative pseudo-random number in [0,n).
// It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Read generates len(p) random bytes and writes them into p. It always
// returns len(p) and a nil error. The byte stream matches
// math/rand.(*Rand).Read for the same seed and call sequence.
func (r *Rand) Read(p []byte) (n int, err error) {
	pos := r.readPos
	val := r.readVal
	for n = 0; n < len(p); n++ {
		if pos == 0 {
			val = r.Int63()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	r.readPos = pos
	r.readVal = val
	return
}
