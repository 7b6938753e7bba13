package pseudofs

import (
	"strconv"
	"sync"
)

// This file holds the zero-allocation append formatting helpers behind the
// pseudo-file handlers. Each helper reproduces one fmt verb bit for bit
// (the repo's byte-identity contract is asserted per path by the
// render-property test), but appends into a caller-supplied buffer instead
// of allocating: the attacker monitor samples hot counters like energy_uj
// thousands of times per campaign, and fmt.Sprintf garbage used to
// dominate the allocation profile.

// bufPool recycles render buffers for the string-compat read path
// (Mount.Read) and for Filter-rule intermediate renders.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// apInt appends v like %d.
func apInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// apUint appends v like %d for unsigned values.
func apUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

// apSpaces appends n spaces (no-op for n <= 0).
func apSpaces(b []byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, ' ')
	}
	return b
}

// apPadInt appends v like %*d: right-aligned in a field of width runes.
func apPadInt(b []byte, width int, v int64) []byte {
	var tmp [24]byte
	s := strconv.AppendInt(tmp[:0], v, 10)
	b = apSpaces(b, width-len(s))
	return append(b, s...)
}

// apPadUint appends v like %*d for unsigned values.
func apPadUint(b []byte, width int, v uint64) []byte {
	var tmp [24]byte
	s := strconv.AppendUint(tmp[:0], v, 10)
	b = apSpaces(b, width-len(s))
	return append(b, s...)
}

// apPadStr appends s like %*s: right-aligned in a field of width runes.
func apPadStr(b []byte, width int, s string) []byte {
	b = apSpaces(b, width-len(s))
	return append(b, s...)
}

// apFloat appends v like %.*f.
func apFloat(b []byte, v float64, prec int) []byte {
	return strconv.AppendFloat(b, v, 'f', prec, 64)
}

// apPadFloat appends v like %*.*f: fixed precision, right-aligned.
func apPadFloat(b []byte, width, prec int, v float64) []byte {
	var tmp [40]byte
	s := strconv.AppendFloat(tmp[:0], v, 'f', prec, 64)
	b = apSpaces(b, width-len(s))
	return append(b, s...)
}

// apHex08 appends v like %08x.
func apHex08(b []byte, v uint64) []byte {
	var tmp [16]byte
	s := strconv.AppendUint(tmp[:0], v, 16)
	for n := 8 - len(s); n > 0; n-- {
		b = append(b, '0')
	}
	return append(b, s...)
}

// apCPULabel appends "CPU<i>" right-aligned in a field of width runes —
// the /proc/interrupts and /proc/softirqs header cells.
func apCPULabel(b []byte, width, i int) []byte {
	var tmp [16]byte
	s := append(tmp[:0], "CPU"...)
	s = strconv.AppendInt(s, int64(i), 10)
	b = apSpaces(b, width-len(s))
	return append(b, s...)
}
