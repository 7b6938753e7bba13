package chaos

import (
	"reflect"
	"testing"

	"repro/internal/snapshot/snapshottest"
)

// TestSnapshotGuards fails when a field is added to Injector, Counters
// or Thermal beside its one table of fault streams (the state that
// Snapshot captures) without an exemption saying why it needs no capture;
// each guard also checks that it fires on one extra field.
func TestSnapshotGuards(t *testing.T) {
	const (
		cfg = "immutable after construction"
		mu  = "guards the stream table; holds no state"
	)
	for _, g := range []struct {
		typ, grown reflect.Type
		state      string
		exempt     map[string]string
	}{
		{reflect.TypeFor[Injector](), reflect.TypeFor[struct {
			Injector
			escaped int
		}](), "paths", map[string]string{"cfg": cfg, "mu": mu}},
		{reflect.TypeFor[Counters](), reflect.TypeFor[struct {
			Counters
			escaped int
		}](), "keys", map[string]string{"cfg": cfg, "mu": mu}},
		{reflect.TypeFor[Thermal](), reflect.TypeFor[struct {
			Thermal
			escaped int
		}](), "cores", map[string]string{
			"cfg": cfg, "mu": mu,
			"inner": "the wrapped provider is fixed at construction; its state is captured on its own",
			"salt":  cfg,
		}},
	} {
		for _, f := range snapshottest.Check(g.typ, g.grown, g.state, g.exempt) {
			t.Error(f)
		}
	}
}
