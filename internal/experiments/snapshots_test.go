package experiments

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
)

// TestWorldPoolKeepsPoolingWhenFull: sessions that are never closed must
// not wedge the pool. Forty never-closed sessions overflow the 32 slots;
// the pool forgets the oldest instead of refusing new keys, so a fresh key
// run twice is still built once and restored once.
func TestWorldPoolKeepsPoolingWhenFull(t *testing.T) {
	p := cloud.LocalTestbed()
	for seed := int64(7_000_001); seed <= 7_000_040; seed++ {
		if _, err := NewInspectSession(p, chaos.Spec{}, seed); err != nil {
			t.Fatalf("session seed %d: %v", seed, err)
		}
	}
	if n := worldPool.Len(); n > worldPoolCap {
		t.Fatalf("pool holds %d worlds, cap %d", n, worldPoolCap)
	}

	before := SnapshotRestores()
	first, err := InspectProviderSeeded(p, chaos.Spec{}, 7_000_100)
	if err != nil {
		t.Fatal(err)
	}
	second, err := InspectProviderSeeded(p, chaos.Spec{}, 7_000_100)
	if err != nil {
		t.Fatal(err)
	}
	if got := SnapshotRestores() - before; got != 1 {
		t.Fatalf("a new key run twice restored %d times, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("restored run differs from the first")
	}
}
