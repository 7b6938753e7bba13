package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// ShardResultMediaType is the Content-Type of a worker's shard result:
// the binary encoding below. Error replies on the same endpoint stay JSON
// envelopes.
const ShardResultMediaType = "application/vnd.leaksd.shard-result"

// WireVersion is the first byte of every encoded shard result. The
// coordinator and its workers ship from one binary and upgrade together;
// a peer speaking another version (or JSON, whose first byte is '{') is
// a failing worker, not a format to negotiate.
const WireVersion byte = 1

// findingSize is the smallest encoded finding: a one-byte path index, the
// status byte, and the 8 bytes of Overlap. The decoder rejects a finding
// count that the bytes left cannot hold at this size.
const findingSize = 1 + 1 + 8

// ShardResult wire layout (all integers are unsigned LEB128 varints
// unless noted; strings are a varint length followed by the bytes):
//
//	version    byte (WireVersion)
//	worker_id  string
//	shard      signed varint (zigzag)
//	generation varint
//	npaths     varint, then npaths strings: the path table, each path
//	           once per shard, in first-use order
//	ncont      varint, then per container:
//	  present  byte: 0 = nil slice, 1 = slice follows (possibly empty)
//	  n        varint (present only), then n findings:
//	    path   varint index into the path table
//	    status byte (a core.FileStatus)
//	    overlap 8 bytes, little-endian IEEE-754 bits of Overlap
//
// Decoding rejects unknown versions, trailing bytes, out-of-table path
// indices and statuses outside core.FileStatus, and checks every count
// against the bytes left before allocating for it. Sending Overlap's exact
// bits keeps the coordinator's merged findings byte-identical to the
// worker's.

// AppendShardResult appends the binary encoding of r to dst.
func AppendShardResult(dst []byte, r *ShardResult) []byte {
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

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// errShortInput reports a count or field running past the end of the
// input.
var errShortInput = errors.New("truncated input")

// wireReader walks an encoded shard result, checking every read against
// the bytes that remain.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) left() int { return len(r.b) - r.off }

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, errShortInput
	}
	r.off += n
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, errShortInput
	}
	r.off += n
	return v, nil
}

func (r *wireReader) readByte() (byte, error) {
	if r.left() < 1 {
		return 0, errShortInput
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

// count reads a varint count of items that each take at least size bytes
// and rejects it unless the remaining input can hold that many.
func (r *wireReader) count(size int, what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.left()/size) {
		return 0, fmt.Errorf("%s count %d exceeds the %d bytes left", what, v, r.left())
	}
	return int(v), nil
}

// bytes reads a length-prefixed byte string (not copied).
func (r *wireReader) bytes(what string) ([]byte, error) {
	n, err := r.count(1, what+" length")
	if err != nil {
		return nil, err
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s, nil
}

// DecodeShardResult decodes one AppendShardResult encoding. The result
// shares one string per path-table entry and one []core.Finding slab per
// shard; it does not retain b.
func DecodeShardResult(b []byte) (*ShardResult, error) {
	sh, err := scanShardResult(b)
	if err != nil {
		return nil, fmt.Errorf("cluster: decode shard result: %w", err)
	}
	// Fill pass: the scan checked every read, and sh holds every size
	// allocated here.
	res := &ShardResult{WorkerID: string(sh.workerID), Shard: sh.shard, Generation: sh.generation}
	r := &wireReader{b: b, off: sh.pathsOff}
	paths := make([]string, sh.npaths)
	for i := range paths {
		n, _ := r.uvarint()
		paths[i] = string(r.b[r.off : r.off+int(n)])
		r.off += int(n)
	}
	r.off = sh.containersOff
	slab := make([]core.Finding, sh.findings)
	res.Findings = make([][]core.Finding, sh.ncont)
	for c := range res.Findings {
		if present, _ := r.readByte(); present == 0 {
			continue
		}
		n, _ := r.uvarint()
		fs := slab[:n:n]
		slab = slab[n:]
		for i := range fs {
			pi, _ := r.uvarint()
			fs[i] = core.Finding{
				Path:    paths[pi],
				Status:  core.FileStatus(r.b[r.off]),
				Overlap: math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off+1:])),
			}
			r.off += 1 + 8
		}
		res.Findings[c] = fs
	}
	return res, nil
}

// shardShape is what the validating scan learns about an encoding: the
// header fields, where the path table and the container records start,
// and every count the fill pass allocates for.
type shardShape struct {
	workerID   []byte // aliases the input
	shard      int
	generation uint64

	pathsOff  int // first path-table entry
	npaths    int
	pathBytes int // total length of the path strings

	containersOff int // first container record
	ncont         int
	findings      int // over all containers
}

// scanShardResult validates a whole encoding without allocating: version,
// every count against the bytes left, path indices, statuses, presence
// flags, and no trailing bytes.
func scanShardResult(b []byte) (shardShape, error) {
	var sh shardShape
	r := &wireReader{b: b}
	v, err := r.readByte()
	if err != nil {
		return sh, err
	}
	if v != WireVersion {
		return sh, fmt.Errorf("wire version %#x, want %#x", v, WireVersion)
	}
	if sh.workerID, err = r.bytes("worker id"); err != nil {
		return sh, err
	}
	shard, err := r.varint()
	if err != nil {
		return sh, err
	}
	if int64(int(shard)) != shard {
		return sh, fmt.Errorf("shard %d overflows int", shard)
	}
	sh.shard = int(shard)
	if sh.generation, err = r.uvarint(); err != nil {
		return sh, err
	}
	if sh.npaths, err = r.count(1, "path"); err != nil {
		return sh, err
	}
	sh.pathsOff = r.off
	for i := 0; i < sh.npaths; i++ {
		p, err := r.bytes("path")
		if err != nil {
			return sh, err
		}
		sh.pathBytes += len(p)
	}
	if sh.ncont, err = r.count(1, "container"); err != nil {
		return sh, err
	}
	sh.containersOff = r.off
	for c := 0; c < sh.ncont; c++ {
		present, err := r.readByte()
		if err != nil {
			return sh, err
		}
		switch present {
		case 0:
			continue
		case 1:
		default:
			return sh, fmt.Errorf("container %d: presence flag %d", c, present)
		}
		n, err := r.count(findingSize, "finding")
		if err != nil {
			return sh, fmt.Errorf("container %d: %w", c, err)
		}
		for i := 0; i < n; i++ {
			pi, err := r.uvarint()
			if err != nil {
				return sh, err
			}
			if pi >= uint64(sh.npaths) {
				return sh, fmt.Errorf("container %d finding %d: path index %d outside table of %d", c, i, pi, sh.npaths)
			}
			if r.left() < 1+8 {
				return sh, errShortInput
			}
			if st := core.FileStatus(r.b[r.off]); st > core.Volatile {
				return sh, fmt.Errorf("container %d finding %d: status %d", c, i, st)
			}
			r.off += 1 + 8
		}
		sh.findings += n
	}
	if r.left() != 0 {
		return sh, fmt.Errorf("%d trailing bytes", r.left())
	}
	return sh, nil
}
