package engine

import (
	"reflect"
	"testing"
	"unsafe"
)

// hasPointers reports whether a value of type t holds a pointer the GC
// would have to trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// TestFindingEntryHoldsNoPointers guards the slab slot: a finding slab is
// one entry per (container, path), refilled on every dirty path, so a
// pointer in it would put a write barrier on every refill and the whole
// slab in every GC mark. The path lives in the engine's layout paths.
func TestFindingEntryHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeFor[findingEntry]()
	if hasPointers(typ) {
		t.Fatalf("%v holds a pointer", typ)
	}
	if size := unsafe.Sizeof(findingEntry{}); size > 32 {
		t.Fatalf("findingEntry is %d bytes, want at most 32", size)
	}
	for _, bad := range []any{"", []int(nil), struct{ p *int }{}, [1]map[int]int{}, struct{ a [2]any }{}} {
		if !hasPointers(reflect.TypeOf(bad)) {
			t.Fatalf("hasPointers misses the pointer in %T", bad)
		}
	}
}
