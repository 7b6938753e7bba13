package fastrand

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The whole point of this package is bit-exact equivalence with
// math/rand.New(rand.NewSource(seed)). Every test here compares the
// replica against the stdlib generator method-for-method.

// seeds covers math/rand's seed reduction: 0 and its replacement
// 89482311, negatives, and values around 2^31-1, the modulus seeds are
// reduced by.
var seeds = []int64{
	0, 1, 2, 42, -1, 1362, 2026, 0x1ea4, 1 << 40, -987654321,
	1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 89482311,
	math.MinInt64, math.MaxInt64,
}

// newStdlib is the math/rand-seeded constructor New replaced, kept as its
// oracle: it reads the state of rand.NewSource(seed) through its outputs.
func newStdlib(seed int64) *Rand {
	return &Rand{vec: sourceState(rand.NewSource(seed).(rand.Source64)), feed: rngLen - rngTap}
}

// TestNewMatchesStdlibSeeding compares New's direct seeding with the
// stdlib-seeded state over the seed list and a spread of others.
func TestNewMatchesStdlibSeeding(t *testing.T) {
	all := append([]int64(nil), seeds...)
	for s := int64(-200); s <= 1000; s++ {
		all = append(all, s)
	}
	gen := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		all = append(all, int64(gen.Uint64()))
	}
	for _, seed := range all {
		if got, want := New(seed), newStdlib(seed); *got != *want {
			t.Fatalf("seed %d: New's state differs from the stdlib-seeded state", seed)
		}
	}
}

// newSink keeps BenchmarkNew's generators on the heap, as a caller's are.
var newSink *Rand

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSink = New(int64(i))
	}
}

func TestUint64Equivalence(t *testing.T) {
	for _, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		fr := New(seed)
		// Cross the 607-draw replay boundary several times.
		for i := 0; i < 4*607; i++ {
			want := std.Uint64()
			got := fr.Uint64()
			if got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

func TestScalarMethodEquivalence(t *testing.T) {
	for _, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		fr := New(seed)
		for i := 0; i < 2000; i++ {
			switch i % 5 {
			case 0:
				if g, w := fr.Int63(), std.Int63(); g != w {
					t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, g, w)
				}
			case 1:
				if g, w := fr.Float64(), std.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
				}
			case 2:
				if g, w := fr.Int31(), std.Int31(); g != w {
					t.Fatalf("seed %d draw %d: Int31 = %d, want %d", seed, i, g, w)
				}
			case 3:
				if g, w := fr.Uint32(), std.Uint32(); g != w {
					t.Fatalf("seed %d draw %d: Uint32 = %d, want %d", seed, i, g, w)
				}
			case 4:
				if g, w := fr.Uint64(), std.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 = %d, want %d", seed, i, g, w)
				}
			}
		}
	}
}

func TestBoundedEquivalence(t *testing.T) {
	ns := []int{1, 2, 3, 7, 8, 24, 100, 1 << 10, 1<<31 - 1, 1 << 32, 1<<62 + 3}
	for _, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		fr := New(seed)
		for i := 0; i < 1500; i++ {
			n := ns[i%len(ns)]
			if g, w := fr.Intn(n), std.Intn(n); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, i, n, g, w)
			}
		}
	}
	for _, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		fr := New(seed)
		for i := 0; i < 500; i++ {
			if g, w := fr.Int31n(int32(3+i)), std.Int31n(int32(3+i)); g != w {
				t.Fatalf("seed %d draw %d: Int31n = %d, want %d", seed, i, g, w)
			}
			if g, w := fr.Int63n(int64(5+i)*7919), std.Int63n(int64(5+i)*7919); g != w {
				t.Fatalf("seed %d draw %d: Int63n = %d, want %d", seed, i, g, w)
			}
		}
	}
}

func TestReadEquivalence(t *testing.T) {
	for _, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		fr := New(seed)
		// Mixed-size reads exercise the 7-byte carry buffer, including
		// interleaving with scalar draws (which, like stdlib, do NOT
		// reset the carry in math/rand? They don't touch readVal/readPos;
		// stdlib keeps them until the next Seed. We mirror that.)
		sizes := []int{1, 3, 7, 8, 13, 16, 64, 5}
		for i, sz := range sizes {
			wantB := make([]byte, sz)
			gotB := make([]byte, sz)
			std.Read(wantB)
			fr.Read(gotB)
			if !bytes.Equal(gotB, wantB) {
				t.Fatalf("seed %d read %d (size %d): got %x want %x", seed, i, sz, gotB, wantB)
			}
		}
	}
}

// TestInterleavedEquivalence drives both generators with the same
// pseudo-randomly chosen method sequence — the strongest guarantee that
// no method consumes a different number of underlying draws.
func TestInterleavedEquivalence(t *testing.T) {
	chooser := rand.New(rand.NewSource(7))
	for _, seed := range seeds {
		std := rand.New(rand.NewSource(seed))
		fr := New(seed)
		buf1 := make([]byte, 11)
		buf2 := make([]byte, 11)
		for i := 0; i < 3000; i++ {
			switch chooser.Intn(6) {
			case 0:
				if fr.Uint64() != std.Uint64() {
					t.Fatalf("seed %d step %d: Uint64 diverged", seed, i)
				}
			case 1:
				if fr.Float64() != std.Float64() {
					t.Fatalf("seed %d step %d: Float64 diverged", seed, i)
				}
			case 2:
				n := 1 + chooser.Intn(1000)
				if fr.Intn(n) != std.Intn(n) {
					t.Fatalf("seed %d step %d: Intn diverged", seed, i)
				}
			case 3:
				if fr.Int63() != std.Int63() {
					t.Fatalf("seed %d step %d: Int63 diverged", seed, i)
				}
			case 4:
				std.Read(buf1)
				fr.Read(buf2)
				if !bytes.Equal(buf1, buf2) {
					t.Fatalf("seed %d step %d: Read diverged", seed, i)
				}
			case 5:
				n := int64(3 + chooser.Intn(1<<20))
				if fr.Int63n(n) != std.Int63n(n) {
					t.Fatalf("seed %d step %d: Int63n diverged", seed, i)
				}
			}
		}
	}
}

func BenchmarkStdlibFloat64(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Float64()
	}
	_ = s
}

func BenchmarkFastrandFloat64(b *testing.B) {
	r := New(1)
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Float64()
	}
	_ = s
}

func TestAddScaledJitterRowsEquivalence(t *testing.T) {
	for _, seed := range seeds {
		fr := New(seed)
		std := rand.New(rand.NewSource(seed))
		for _, shape := range []struct{ rows, cols int }{
			{0, 8}, {1, 1}, {1, 24}, {17, 24}, {5, 3}, {3, 607}, {2, 304},
		} {
			scales := make([]float64, shape.rows)
			for i := range scales {
				scales[i] = 0.5 + float64(i)*1.75
			}
			got := make([]float64, shape.rows*shape.cols)
			want := make([]float64, shape.rows*shape.cols)
			for i := range got {
				got[i] = float64(i) * 0.25
				want[i] = got[i]
			}
			fr.AddScaledJitterRows(got, shape.cols, scales, 0.1)
			for r := 0; r < shape.rows; r++ {
				for c := 0; c < shape.cols; c++ {
					want[r*shape.cols+c] += scales[r] * (1 + (std.Float64()*2-1)*0.1)
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d shape %dx%d index %d: got %v want %v",
						seed, shape.rows, shape.cols, i, got[i], want[i])
				}
			}
			if g, w := fr.Float64(), std.Float64(); g != w {
				t.Fatalf("seed %d after %dx%d: scalar draw diverged", seed, shape.rows, shape.cols)
			}
		}
	}
}

func TestAddScaledJitter2RowsEquivalence(t *testing.T) {
	for _, seed := range seeds {
		fr := New(seed)
		std := rand.New(rand.NewSource(seed))
		for _, shape := range []struct{ pairs, cols int }{
			{0, 8}, {1, 1}, {1, 304}, {4, 24}, {2, 307}, {3, 5},
		} {
			scaleA := make([]float64, shape.pairs)
			scaleB := make([]float64, shape.pairs)
			for i := range scaleA {
				scaleA[i] = 0.75 + float64(i)
				scaleB[i] = 1.5e6 / float64(i+1)
			}
			got := make([]float64, 2*shape.pairs*shape.cols)
			want := make([]float64, len(got))
			for i := range got {
				got[i] = 3.0 + float64(i)
				want[i] = got[i]
			}
			fr.AddScaledJitter2Rows(got, shape.cols, scaleA, scaleB, 0.05)
			for p := 0; p < shape.pairs; p++ {
				a := want[(2*p)*shape.cols : (2*p+1)*shape.cols]
				b := want[(2*p+1)*shape.cols : (2*p+2)*shape.cols]
				for c := 0; c < shape.cols; c++ {
					a[c] += scaleA[p] * (1 + (std.Float64()*2-1)*0.05)
					b[c] += scaleB[p] * (1 + (std.Float64()*2-1)*0.05)
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d shape %dx%d index %d: got %v want %v",
						seed, shape.pairs, shape.cols, i, got[i], want[i])
				}
			}
			if g, w := fr.Float64(), std.Float64(); g != w {
				t.Fatalf("seed %d after %dx%d: scalar draw diverged", seed, shape.pairs, shape.cols)
			}
		}
	}
}

// TestSaveRestoreStreamIdentity pins the snapshot contract: a Rand is a
// plain value, so a copy saves its full stream position and assigning the
// copy back replays exactly the stream that followed the save, across
// every method class (scalars, bounded, Read's byte carry, and both fused
// block kernels the kernel tick uses), any number of times.
func TestSaveRestoreStreamIdentity(t *testing.T) {
	chooser := rand.New(rand.NewSource(11))
	drain := func(r *Rand, n int) []uint64 {
		out := make([]uint64, 0, 4*n)
		buf := make([]byte, 9)
		block := make([]float64, 13)
		pairs := make([]float64, 2*2*7) // two usage/time row pairs of 7
		for i := 0; i < n; i++ {
			switch chooser.Intn(6) {
			case 0:
				out = append(out, r.Uint64())
			case 1:
				out = append(out, uint64(r.Intn(1000)))
			case 2:
				r.Read(buf)
				for _, b := range buf {
					out = append(out, uint64(b))
				}
			case 3:
				for range block {
					out = append(out, uint64(r.Float64()*1e18))
				}
			case 4:
				for i := range block {
					block[i] = 0
				}
				r.AddScaledJitterRows(block, 13, []float64{2.5}, 0.1)
				for _, f := range block {
					out = append(out, uint64(f*1e18))
				}
			case 5:
				clear(pairs)
				r.AddScaledJitter2Rows(pairs, 7, []float64{0.75, 3}, []float64{1.5e6, 2e5}, 0.05)
				for _, f := range pairs {
					out = append(out, math.Float64bits(f))
				}
			}
		}
		return out
	}
	for _, seed := range seeds {
		r := New(seed)
		// Move to a mid-stream position (including a partial Read carry).
		r.Read(make([]byte, 5))
		r.Uint64()
		s := *r
		chooser.Seed(int64(seed) ^ 0x5a5a)
		want := drain(r, 200)
		for attempt := 0; attempt < 3; attempt++ {
			*r = s
			chooser.Seed(int64(seed) ^ 0x5a5a)
			got := drain(r, 200)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d restore %d: stream diverged at draw %d", seed, attempt, i)
				}
			}
		}
	}
}
