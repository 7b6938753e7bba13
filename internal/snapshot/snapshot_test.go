package snapshot

import "testing"

func TestRefill(t *testing.T) {
	if got := Refill([]int{1}, []int(nil)); got != nil {
		t.Errorf("Refill of a nil src = %v, want nil", got)
	}
	if got := Refill(nil, []int{}); got == nil {
		t.Error("Refill of an empty non-nil src into nil gave nil")
	}
	live := []int{9, 9, 9}
	src := []int{1, 2, 3}
	got := Refill(live, src)
	if &got[0] != &live[0] {
		t.Error("Refill did not reuse dst's array")
	}
	got[0] = 7
	if src[0] != 1 {
		t.Error("Refill result shares memory with src")
	}
}

// TestTableRestoresIdentityAndValues checks the table contract: keys born
// after the capture are dropped, removed keys come back with their own
// object, and every object gets back its captured value, repeatably.
func TestTableRestoresIdentityAndValues(t *testing.T) {
	type obj struct {
		n    int
		tags []string
	}
	clone := func(o *obj) { o.tags = append([]string(nil), o.tags...) }
	a, b := &obj{1, []string{"a"}}, &obj{2, nil}
	live := map[string]*obj{"a": a, "b": b}
	tab := Capture(live, clone)

	for round := 0; round < 2; round++ {
		a.n, a.tags[0] = 10, "mutated"
		delete(live, "b")
		live["c"] = &obj{3, nil}
		live = tab.Restore(live, clone)
		if len(live) != 2 || live["a"] != a || live["b"] != b {
			t.Fatalf("round %d: table %v, want the captured a and b objects", round, live)
		}
		if a.n != 1 || a.tags[0] != "a" || b.n != 2 {
			t.Fatalf("round %d: values %+v %+v, want the captured ones", round, *a, *b)
		}
	}
	if got := (Table[string, obj]{}).Restore(nil, nil); got == nil || len(got) != 0 {
		t.Errorf("empty table restored into nil = %#v, want an empty map", got)
	}
}
