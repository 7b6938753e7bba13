package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// encodedShard executes one real shard and returns its result and
// encoding.
func encodedShard(t testing.TB, spec Spec, containers []int) (*ShardResult, []byte) {
	t.Helper()
	w := NewWorker("http://worker-0:8080", NewLocalWorlds(1))
	res, err := w.ExecShard(context.Background(), &ShardRequest{Shard: 3, Spec: spec, Containers: containers})
	if err != nil {
		t.Fatalf("exec shard: %v", err)
	}
	return res, AppendShardResult(nil, res)
}

// sameShardResult compares two results field by field, Overlap by its
// bits (so NaN payloads compare equal to themselves) and nil container
// slices apart from empty ones.
func sameShardResult(a, b *ShardResult) bool {
	if a.WorkerID != b.WorkerID || a.Shard != b.Shard || a.Generation != b.Generation ||
		len(a.Findings) != len(b.Findings) {
		return false
	}
	for i := range a.Findings {
		fa, fb := a.Findings[i], b.Findings[i]
		if (fa == nil) != (fb == nil) || len(fa) != len(fb) {
			return false
		}
		for j := range fa {
			if fa[j].Path != fb[j].Path || fa[j].Status != fb[j].Status ||
				math.Float64bits(fa[j].Overlap) != math.Float64bits(fb[j].Overlap) {
				return false
			}
		}
	}
	return true
}

// TestShardResultRoundTrip: a real shard decodes to exactly the result
// the worker produced — same findings bytes, one shared string per path.
func TestShardResultRoundTrip(t *testing.T) {
	for _, spec := range []Spec{
		{Provider: "local", Containers: 3},
		{Provider: "cc1", Containers: 2, Seed: 7},
	} {
		containers := allContainers(spec.Containers)
		want, enc := encodedShard(t, spec, containers)
		got, err := DecodeShardResult(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Provider, err)
		}
		if !sameShardResult(got, want) {
			t.Fatalf("%s: decoded result differs from the worker's", spec.Provider)
		}
		if !bytes.Equal(mustJSON(t, got.Findings), mustJSON(t, want.Findings)) {
			t.Fatalf("%s: decoded findings serialize differently", spec.Provider)
		}
		if !bytes.Equal(AppendShardResult(nil, got), enc) {
			t.Fatalf("%s: re-encoding a decoded shard changed its bytes", spec.Provider)
		}
		// Every container holds the same paths; the table stores each once.
		if len(enc) >= len(mustJSON(t, want))/2 {
			t.Fatalf("%s: encoding is %d bytes, JSON %d — paths not interned?", spec.Provider, len(enc), len(mustJSON(t, want)))
		}
	}
}

// TestShardResultNilAndEmpty: a nil container slice and an empty one stay
// distinct (they serialize differently), and an empty shard round-trips.
func TestShardResultNilAndEmpty(t *testing.T) {
	in := &ShardResult{
		WorkerID:   "w",
		Shard:      -2,
		Generation: 1 << 40,
		Findings: [][]core.Finding{
			nil,
			{},
			{{Path: "/proc/stat", Status: core.Identical, Overlap: 1}, {Path: "/proc/meminfo", Status: core.Partial, Overlap: 0.25}},
			{{Path: "/proc/meminfo", Status: core.Masked}},
		},
	}
	for _, r := range []*ShardResult{in, {WorkerID: "w", Findings: [][]core.Finding{}}} {
		got, err := DecodeShardResult(AppendShardResult(nil, r))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !sameShardResult(got, r) {
			t.Fatalf("round trip changed %+v into %+v", r, got)
		}
	}
}

// TestDecodeShardResultRejects: malformed inputs fail with an error, never
// a panic or a partial result.
func TestDecodeShardResultRejects(t *testing.T) {
	_, enc := encodedShard(t, Spec{Provider: "local", Containers: 2}, []int{0, 1})
	for n := 0; n < len(enc); n++ {
		if res, err := DecodeShardResult(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted: %+v", n, len(enc), res)
		}
	}
	flip := append([]byte(nil), enc...)
	flip[0]++
	small := AppendShardResult(nil, &ShardResult{Findings: [][]core.Finding{{{Path: "/p", Status: core.Volatile}}}})
	badIndex := append([]byte(nil), small...)
	badIndex[len(badIndex)-10] = 1 // the only finding's path index; the table has one entry
	badStatus := append([]byte(nil), small...)
	badStatus[len(badStatus)-9] = byte(core.Volatile) + 1
	badFlag := AppendShardResult(nil, &ShardResult{Findings: [][]core.Finding{nil}})
	badFlag[len(badFlag)-1] = 2
	cases := map[string][]byte{
		"trailing byte":   append(append([]byte(nil), enc...), 0),
		"wrong version":   flip,
		"json":            []byte(`{"worker_id":"w","findings":[]}`),
		"path index":      badIndex,
		"status":          badStatus,
		"presence flag":   badFlag,
		"huge containers": {WireVersion, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge paths":      {WireVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge worker id":  {WireVersion, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, b := range cases {
		if res, err := DecodeShardResult(b); err == nil {
			t.Errorf("%s accepted: %+v", name, res)
		} else if !strings.HasPrefix(err.Error(), "cluster: decode shard result") {
			t.Errorf("%s: error %q lacks the decode prefix", name, err)
		}
	}
}

// allocPerByte bounds the decoder's allocation per input byte. The worst
// case is a nil container: one presence byte backs one 24-byte slice
// header in the container table.
const allocPerByte = 32

// allocBytes is what DecodeShardResult allocates for an input of this
// shape: the worker ID, the path table and its strings, the container
// table, and the finding slab.
func (sh shardShape) allocBytes() int {
	return len(sh.workerID) +
		sh.npaths*int(unsafe.Sizeof("")) + sh.pathBytes +
		sh.ncont*int(unsafe.Sizeof([]core.Finding(nil))) +
		sh.findings*int(unsafe.Sizeof(core.Finding{}))
}

// FuzzDecodeShardResult states the decoder's invariants on arbitrary
// input:
//   - it never panics;
//   - it allocates no more than the input length can back: the scan that
//     checks every count against the bytes left runs before any make, and
//     the sizes it hands the fill pass stay within allocPerByte per byte;
//   - an accepted input has every path inside the table and every status
//     inside core.FileStatus;
//   - Decode(Append(Decode(b))) equals Decode(b).
func FuzzDecodeShardResult(f *testing.F) {
	_, enc := encodedShard(f, Spec{Provider: "local", Containers: 2}, []int{0, 1})
	_, masked := encodedShard(f, Spec{Provider: "cc1", Containers: 1, Seed: 7}, []int{0})
	flip := append([]byte(nil), enc...)
	flip[0] = WireVersion + 1
	f.Add(enc)
	f.Add(masked)
	f.Add(enc[:len(enc)/2])
	f.Add(enc[:1])
	f.Add(append(append([]byte(nil), enc...), 0))
	f.Add(flip)
	f.Add(AppendShardResult(nil, &ShardResult{WorkerID: "w", Findings: [][]core.Finding{nil, {}}}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		sh, scanErr := scanShardResult(b)
		res, err := DecodeShardResult(b)
		if (scanErr == nil) != (err == nil) {
			t.Fatalf("scan error %v, decode error %v", scanErr, err)
		}
		if err != nil {
			if res != nil {
				t.Fatalf("error %v with a non-nil result", err)
			}
			return
		}
		if alloc, limit := sh.allocBytes(), allocPerByte*len(b); alloc > limit {
			t.Fatalf("decoding %d bytes allocates %d (limit %d)", len(b), alloc, limit)
		}
		total := 0
		for _, fs := range res.Findings {
			total += len(fs)
		}
		if len(res.Findings) != sh.ncont || total != sh.findings {
			t.Fatalf("decoded %d containers, %d findings; scan sized %d, %d",
				len(res.Findings), total, sh.ncont, sh.findings)
		}
		for _, fs := range res.Findings {
			for _, fd := range fs {
				if fd.Status < core.Unknown || fd.Status > core.Volatile {
					t.Fatalf("accepted status %d", fd.Status)
				}
				if !bytes.Contains(b, []byte(fd.Path)) {
					t.Fatalf("path %q is not in the input's table", fd.Path)
				}
			}
		}
		again, err := DecodeShardResult(AppendShardResult(nil, res))
		if err != nil {
			t.Fatalf("re-encoded result rejected: %v", err)
		}
		if !sameShardResult(again, res) {
			t.Fatalf("Decode(Append(Decode(b))) differs from Decode(b)")
		}
	})
}

// appendShardResultMapOnly is the reference encoder AppendShardResult is
// differentially tested against: the path table in first-use order, every
// finding's index looked up in a map.
func appendShardResultMapOnly(dst []byte, r *ShardResult) []byte {
	idx := make(map[string]int)
	var paths []string
	for _, fs := range r.Findings {
		for _, f := range fs {
			if _, ok := idx[f.Path]; !ok {
				idx[f.Path] = len(paths)
				paths = append(paths, f.Path)
			}
		}
	}
	dst = append(dst, WireVersion)
	dst = appendString(dst, r.WorkerID)
	dst = binary.AppendVarint(dst, int64(r.Shard))
	dst = binary.AppendUvarint(dst, r.Generation)
	dst = binary.AppendUvarint(dst, uint64(len(paths)))
	for _, p := range paths {
		dst = appendString(dst, p)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Findings)))
	for _, fs := range r.Findings {
		if fs == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(fs)))
		for _, f := range fs {
			dst = binary.AppendUvarint(dst, uint64(idx[f.Path]))
			dst = append(dst, byte(f.Status))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Overlap))
		}
	}
	return dst
}

// findingsOf builds one container's findings over the given paths.
func findingsOf(paths ...string) []core.Finding {
	fs := make([]core.Finding, len(paths))
	for i, p := range paths {
		fs[i] = core.Finding{Path: p, Status: core.FileStatus(i % int(core.Volatile+1)), Overlap: float64(i) / 7}
	}
	return fs
}

// TestAppendShardResultMatchesMapOnly: the positional encoder writes the
// reference encoder's bytes on real shards and on results whose
// containers hold different path subsets, reordered or repeated paths,
// and nil or empty slices.
func TestAppendShardResultMatchesMapOnly(t *testing.T) {
	var cases []*ShardResult
	for _, spec := range []Spec{
		{Provider: "local", Containers: 3},
		{Provider: "cc1", Containers: 2, Seed: 7},
		{Provider: "cc5", Containers: 4},
	} {
		res, _ := encodedShard(t, spec, allContainers(spec.Containers))
		cases = append(cases, res)
	}
	cases = append(cases,
		&ShardResult{WorkerID: "w"},
		&ShardResult{Findings: [][]core.Finding{nil, {}, nil}},
		&ShardResult{WorkerID: "subsets", Shard: 5, Generation: 9, Findings: [][]core.Finding{
			findingsOf("/a", "/b", "/c"),
			findingsOf("/a", "/c"),
			findingsOf("/b", "/c", "/d"),
			findingsOf("/a", "/b", "/c", "/d", "/e"),
		}},
		&ShardResult{WorkerID: "reordered", Findings: [][]core.Finding{
			nil,
			findingsOf("/a", "/b", "/c"),
			{},
			findingsOf("/c", "/b", "/a"),
			findingsOf("/b", "/a", "/c", "/f"),
		}},
		&ShardResult{WorkerID: "repeats", Findings: [][]core.Finding{
			findingsOf("/a", "/a", "/b"),
			findingsOf("/b", "/b", "/a", "/a"),
		}},
	)
	// Random shards over a small alphabet, so positions agree sometimes.
	rng := rand.New(rand.NewPCG(1, 2))
	alphabet := []string{"/p0", "/p1", "/p2", "/p3", "/p4", "/p5"}
	for range 200 {
		res := &ShardResult{Findings: make([][]core.Finding, rng.IntN(5))}
		for c := range res.Findings {
			if rng.IntN(6) == 0 {
				continue // nil container
			}
			paths := make([]string, rng.IntN(len(alphabet)+2))
			for j := range paths {
				if rng.IntN(3) == 0 {
					paths[j] = alphabet[rng.IntN(len(alphabet))]
				} else {
					paths[j] = alphabet[j%len(alphabet)]
				}
			}
			res.Findings[c] = findingsOf(paths...)
		}
		cases = append(cases, res)
	}
	for i, res := range cases {
		want := appendShardResultMapOnly([]byte("prefix"), res)
		if got := AppendShardResult([]byte("prefix"), res); !bytes.Equal(got, want) {
			t.Fatalf("case %d (%q): positional encoding differs from the map-only one\n got %x\nwant %x", i, res.WorkerID, got, want)
		}
	}
}

// TestAppendShardResultAllocs bounds the encoder's allocations on a real
// 32-container shard encoded into a presized buffer. The path table and
// its map come from a pool, so a warm encoding allocates nothing; the
// bound leaves room for a cold table (the paths slice and the map, about
// five allocations), which the race detector's random pool drops force,
// and still fails at one allocation per finding or per container.
func TestAppendShardResultAllocs(t *testing.T) {
	res, enc := encodedShard(t, Spec{Provider: "local", Containers: 32}, allContainers(32))
	buf := make([]byte, 0, len(enc))
	allocs := testing.AllocsPerRun(20, func() { buf = AppendShardResult(buf[:0], res) })
	if !bytes.Equal(buf, enc) {
		t.Fatal("encoding into a presized buffer changed the bytes")
	}
	if allocs > 8 {
		t.Fatalf("encoding a 32-container shard allocates %.0f times, want at most 8", allocs)
	}
}
