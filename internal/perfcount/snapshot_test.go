package perfcount

import (
	"reflect"
	"testing"

	"repro/internal/snapshot/snapshottest"
)

// TestSnapshotGuard fails when a field is added to Monitor outside
// monitorState, and checks that it fires on one extra field.
func TestSnapshotGuard(t *testing.T) {
	grown := reflect.TypeFor[struct {
		Monitor
		escaped int
	}]()
	for _, f := range snapshottest.Check(reflect.TypeFor[Monitor](), grown, "monitorState", nil) {
		t.Error(f)
	}
}
