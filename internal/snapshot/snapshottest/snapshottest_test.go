package snapshottest

import (
	"reflect"
	"slices"
	"testing"
)

type state struct{ n int }

type guarded struct {
	state
	cfg     int
	scratch []int
}

func TestStray(t *testing.T) {
	typ := reflect.TypeFor[guarded]()
	exempt := map[string]string{"cfg": "immutable", "scratch": "scratch"}
	if got := Stray(typ, "state", exempt); len(got) != 0 {
		t.Errorf("Stray = %v, want none", got)
	}
	if got := Stray(typ, "state", map[string]string{"cfg": ""}); !slices.Equal(got, []string{"scratch"}) {
		t.Errorf("Stray without the scratch exemption = %v, want [scratch]", got)
	}
	exempt["gone"] = "names no field"
	if got := Stray(typ, "state", exempt); !slices.Equal(got, []string{"exempt:gone"}) {
		t.Errorf("Stray with a stale exemption = %v, want [exempt:gone]", got)
	}
}

func TestCheck(t *testing.T) {
	exempt := map[string]string{"cfg": "immutable", "scratch": "scratch"}
	grown := reflect.TypeFor[struct {
		guarded
		escaped int
	}]()
	if got := Check(reflect.TypeFor[guarded](), grown, "state", exempt); len(got) != 0 {
		t.Errorf("Check = %v, want nothing", got)
	}
	// A grown type that hides its extra field from the guard must fail
	// the guard's own test.
	if got := Check(reflect.TypeFor[guarded](), reflect.TypeFor[guarded](), "state", exempt); len(got) != 1 {
		t.Errorf("Check with an ungrown type = %v, want one failure", got)
	}
}
