// Package snapshot holds what the simulated types' Snapshot/Restore pairs
// share. Each stateful type keeps its mutable state in one embedded value
// struct: Snapshot copies it, giving its slices and maps memory of their
// own, and Restore copies it back, refilling the live slices in place
// (Refill) so views into them stay valid. Objects whose pointers must
// outlive a Restore (tasks, cgroups, containers, fault streams) sit in
// table maps, which Capture and Table.Restore handle.
package snapshot

import "slices"

// Refill returns src's elements in dst's array when it has room, else in
// a fresh one, so the result shares no memory with src; nil gives nil.
func Refill[S ~[]E, E any](dst, src S) S {
	if src == nil {
		return nil
	}
	if dst == nil {
		return slices.Clone(src)
	}
	return append(dst[:0], src...)
}

// Table is a captured table map: which key held which object, and a copy
// of each object's value.
type Table[K comparable, V any] []entry[K, V]

type entry[K comparable, V any] struct {
	k K
	p *V
	v V
}

// Capture captures a table map; clone, if non-nil, gives each copied value
// slices and maps of its own.
func Capture[K comparable, V any](ptrs map[K]*V, clone func(*V)) Table[K, V] {
	t := make(Table[K, V], 0, len(ptrs))
	for k, p := range ptrs {
		t = append(t, entry[K, V]{k, p, *p})
		if clone != nil {
			clone(&t[len(t)-1].v)
		}
	}
	return t
}

// Restore rewinds live to the capture and returns it: keys born after the
// capture are dropped, and every captured key gets back its own object,
// holding its captured value. A nil live gets a fresh map.
func (t Table[K, V]) Restore(live map[K]*V, clone func(*V)) map[K]*V {
	if live == nil {
		live = make(map[K]*V, len(t))
	}
	clear(live)
	for i := range t {
		e := &t[i]
		*e.p = e.v
		if clone != nil {
			clone(e.p)
		}
		live[e.k] = e.p
	}
	return live
}
