// Package snapshottest holds the two checks every stateful simulated
// type's tests run on its Snapshot/Restore pair (see package snapshot):
// the completeness guard (each field of the type is its state struct or
// is exempted with a reason) and the sharing check (a capture and the live
// state share no slice or map).
package snapshottest

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"repro/internal/snapshot"
)

// Stray returns the fields of the struct type typ, in declaration order,
// that are neither its state field (named state) nor listed in exempt,
// followed by each exemption that names no field. An embedded struct that
// is neither contributes its own fields. Every stateful type's guard test
// requires an empty result, so a field added outside the state struct
// fails until it is exempted with a reason.
func Stray(typ reflect.Type, state string, exempt map[string]string) []string {
	seen := map[string]bool{}
	var walk func(t reflect.Type) []string
	walk = func(t reflect.Type) []string {
		var out []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			seen[f.Name] = true
			_, exempted := exempt[f.Name]
			switch {
			case f.Name == state || exempted:
			case f.Anonymous && f.Type.Kind() == reflect.Struct:
				out = append(out, walk(f.Type)...)
			default:
				out = append(out, f.Name)
			}
		}
		return out
	}
	out := walk(typ)
	var unknown []string
	for name := range exempt {
		if !seen[name] {
			unknown = append(unknown, "exempt:"+name)
		}
	}
	slices.Sort(unknown)
	return append(out, unknown...)
}

// Check runs one type's completeness guard and returns what it finds
// wrong: typ's stray fields (see Stray), and — the guard's own test —
// grown, typ embedded in a struct with one more field named escaped,
// failing to report exactly that field.
func Check(typ, grown reflect.Type, state string, exempt map[string]string) []string {
	var out []string
	if stray := Stray(typ, state, exempt); len(stray) > 0 {
		out = append(out, fmt.Sprintf("%v: fields outside %s and not exempt: %v", typ, state, stray))
	}
	if got := Stray(grown, state, exempt); !slices.Equal(got, []string{"escaped"}) {
		out = append(out, fmt.Sprintf("%v: guard reported %v for one uncaptured field, want [escaped]", typ, got))
	}
	return out
}

// tableType names snapshot.Table's instantiations.
var tableType = reflect.TypeOf(snapshot.Table[int, int]{})

// Shared returns the path of every slice or map through which live and
// saved, two values of one type, share memory: a Snapshot or Restore that
// lets them share one lets later mutations of the live world rewrite the
// capture. It descends into structs, arrays and slice elements and
// follows no pointer, interface or func, since a pointer in a state struct
// names an object with a capture of its own. A saved snapshot.Table is
// checked on its own, whatever live is: each entry's copy against the
// object it came from.
func Shared(live, saved any) []string {
	var out []string
	var walk func(path string, a, b reflect.Value)
	walk = func(path string, a, b reflect.Value) {
		t := b.Type()
		if t.PkgPath() == tableType.PkgPath() && strings.HasPrefix(t.Name(), "Table[") {
			for i := 0; i < b.Len(); i++ {
				e := b.Index(i)
				walk(fmt.Sprintf("%s[%v]", path, e.Field(0)), e.Field(1).Elem(), e.Field(2))
			}
			return
		}
		switch b.Kind() {
		case reflect.Struct:
			for i := 0; i < b.NumField(); i++ {
				walk(path+"."+t.Field(i).Name, a.Field(i), b.Field(i))
			}
		case reflect.Array, reflect.Slice:
			if b.Kind() == reflect.Slice && a.Cap() > 0 && b.Cap() > 0 && a.Pointer() == b.Pointer() {
				out = append(out, path)
			}
			for i := 0; i < min(a.Len(), b.Len()); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
			}
		case reflect.Map:
			if !a.IsNil() && a.Pointer() == b.Pointer() {
				out = append(out, path)
			}
		}
	}
	s := reflect.ValueOf(saved)
	walk(s.Type().String(), reflect.ValueOf(live), s)
	return out
}
