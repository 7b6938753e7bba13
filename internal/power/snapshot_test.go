package power

import (
	"reflect"
	"testing"

	"repro/internal/snapshot/snapshottest"
)

// TestSnapshotGuards fails when a field is added to Meter or Governor
// outside its state struct without an exemption saying why it needs no
// capture; each guard also checks that it fires on one extra field.
func TestSnapshotGuards(t *testing.T) {
	for _, g := range []struct {
		typ, grown reflect.Type
		state      string
		exempt     map[string]string
	}{
		{reflect.TypeFor[Meter](), reflect.TypeFor[struct {
			Meter
			escaped int
		}](), "meterState", map[string]string{"cfg": "immutable after New"}},
		{reflect.TypeFor[Governor](), reflect.TypeFor[struct {
			Governor
			escaped int
		}](), "governorState", map[string]string{"cfg": "immutable after NewGovernor"}},
	} {
		for _, f := range snapshottest.Check(g.typ, g.grown, g.state, g.exempt) {
			t.Error(f)
		}
	}
}

// TestSnapshotSharesNothing checks that a capture and the live meter or
// governor share no slice, right after Snapshot and after a Restore.
func TestSnapshotSharesNothing(t *testing.T) {
	m, g := New(DefaultConfig()), NewGovernor(GovernorConfig{Cores: 4})
	ms, gs := m.Snapshot(), g.Snapshot()
	for _, stage := range []string{"Snapshot", "Restore"} {
		if stage == "Restore" {
			m.Restore(ms)
			g.Restore(gs)
		}
		if shared := append(snapshottest.Shared(m.meterState, ms.s), snapshottest.Shared(g.governorState, gs.s)...); len(shared) > 0 {
			t.Errorf("after %s a capture shares memory with the live state: %v", stage, shared)
		}
	}
}
