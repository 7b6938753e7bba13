package simclock

import (
	"reflect"
	"testing"

	"repro/internal/snapshot/snapshottest"
)

// TestSnapshotGuard fails when a field is added to Clock outside
// clockState without an exemption saying why it needs no capture, and
// checks that it fires on one extra field.
func TestSnapshotGuard(t *testing.T) {
	grown := reflect.TypeFor[struct {
		Clock
		escaped int
	}]()
	structural := "ticker registrations are structural: rebuilt only with the world"
	exempt := map[string]string{"tickers": structural, "shards": structural, "post": structural}
	for _, f := range snapshottest.Check(reflect.TypeFor[Clock](), grown, "clockState", exempt) {
		t.Error(f)
	}
}

// TestSnapshotSharesNothing checks that a capture and the live clock share
// no event queue, right after Snapshot and after a Restore.
func TestSnapshotSharesNothing(t *testing.T) {
	c := New()
	for i := 1; i <= 3; i++ {
		c.At(float64(i), func(float64) {})
	}
	s := c.Snapshot()
	c.Advance(2)
	c.Restore(s)
	if shared := snapshottest.Shared(c.clockState, s.s); len(shared) > 0 {
		t.Errorf("after Restore the capture shares memory with the live clock: %v", shared)
	}
}
