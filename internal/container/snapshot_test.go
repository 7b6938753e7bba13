package container

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/snapshot/snapshottest"
	"repro/internal/workload"
)

// TestSnapshotGuard fails when a field is added to Runtime outside
// runtimeState without an exemption saying why it needs no capture, and
// checks that it fires on one extra field.
func TestSnapshotGuard(t *testing.T) {
	grown := reflect.TypeFor[struct {
		Runtime
		escaped int
	}]()
	exempt := map[string]string{
		"k":       "the kernel has its own snapshot",
		"fs":      "the FS has its own snapshot",
		"profile": "immutable after NewRuntime",
	}
	for _, f := range snapshottest.Check(reflect.TypeFor[Runtime](), grown, "runtimeState", exempt) {
		t.Error(f)
	}
}

// TestSnapshotSharesNothing checks that a capture and the live runtime
// share no slice or map, right after Snapshot and after a Restore that
// followed a Stop (which filters a container's task list in place). A
// container's creation-time policy rules are shared on purpose: nothing
// writes them.
func TestSnapshotSharesNothing(t *testing.T) {
	r := newHost(t, 3)
	c := r.Create("web")
	c.Run(workload.Prime, 1)
	c.Run(workload.Libquantum, 1)
	s := r.Snapshot()
	for _, stage := range []string{"Snapshot", "Restore"} {
		if stage == "Restore" {
			c.StopAll()
			r.Restore(s)
		}
		shared := append(snapshottest.Shared(r.runtimeState, s.s), snapshottest.Shared(nil, s.containers)...)
		shared = slices.DeleteFunc(shared, func(p string) bool { return strings.HasSuffix(p, ".base.Rules") })
		if len(shared) > 0 {
			t.Errorf("after %s the capture shares memory with the live runtime: %v", stage, shared)
		}
	}
}
