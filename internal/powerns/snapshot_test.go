package powerns

import (
	"reflect"
	"testing"

	"repro/internal/snapshot/snapshottest"
)

// TestSnapshotGuard fails when a field is added to Namespace outside
// namespaceState without an exemption saying why it needs no capture, and
// checks that it fires on one extra field.
func TestSnapshotGuard(t *testing.T) {
	grown := reflect.TypeFor[struct {
		Namespace
		escaped int
	}]()
	exempt := map[string]string{
		"k":         "the kernel has its own snapshot",
		"model":     "the trained model is immutable",
		"mu":        "serializes reads; holds no state",
		"rawSource": "structural: installed at world build, swapped only by chaos harnesses before any capture",
	}
	for _, f := range snapshottest.Check(reflect.TypeFor[Namespace](), grown, "namespaceState", exempt) {
		t.Error(f)
	}
}
