package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
)

func TestInspectSessionFirstPassMatchesOneShot(t *testing.T) {
	p := cloud.LocalTestbed()
	want, err := InspectProviderSeeded(p, chaos.Spec{}, 0)
	if err != nil {
		t.Fatalf("one-shot inspection: %v", err)
	}

	s, err := NewInspectSession(p, chaos.Spec{}, 0)
	if err != nil {
		t.Fatalf("NewInspectSession: %v", err)
	}
	got := s.Inspect()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("session first pass differs from one-shot InspectProviderSeeded")
	}
	if s.Provider() != p.Name {
		t.Errorf("session provider = %q, want %q", s.Provider(), p.Name)
	}
}

func TestInspectSessionRepeatIsCached(t *testing.T) {
	s, err := NewInspectSession(cloud.LocalTestbed(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatalf("NewInspectSession: %v", err)
	}
	first := s.Inspect()
	misses := s.EngineStats().FindingMisses

	second := s.Inspect()
	st := s.EngineStats()
	if st.FindingMisses != misses {
		t.Errorf("repeat inspect on frozen world re-validated %d paths, want 0", st.FindingMisses-misses)
	}
	if st.FindingHits == 0 {
		t.Error("repeat inspect recorded no cache hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeat inspect differs from first pass")
	}
}

// TestInspectSessionAdvanceByteIdentity: advancing a session and
// re-inspecting (incremental: only dirty subsystems re-validate) must be
// byte-identical to a fresh session driven to the same instant and
// inspected cold.
func TestInspectSessionAdvanceByteIdentity(t *testing.T) {
	p := cloud.LocalTestbed()
	inc, err := NewInspectSession(p, chaos.Spec{}, 0)
	if err != nil {
		t.Fatalf("NewInspectSession: %v", err)
	}
	_ = inc.Inspect() // warm the caches at t=30
	inc.Advance(7)
	got := inc.Inspect()

	cold, err := NewInspectSession(p, chaos.Spec{}, 0)
	if err != nil {
		t.Fatalf("NewInspectSession (cold): %v", err)
	}
	cold.Advance(7)
	want := cold.Inspect()

	if !reflect.DeepEqual(got, want) {
		t.Fatal("incremental post-advance inspection differs from cold inspection at the same instant")
	}
	if hits := inc.EngineStats().FindingHits; hits == 0 {
		t.Error("post-advance inspection reused nothing — dirty tracking is not narrowing work")
	}
}

func TestDiscoverySessionMatchesOneShot(t *testing.T) {
	want, err := Discovery(context.Background(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatalf("one-shot discovery: %v", err)
	}
	s := NewDiscoverySession(chaos.Spec{}, 0)
	got := s.Discover()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("discovery session first pass differs from one-shot Discovery")
	}
	misses := s.EngineStats().FindingMisses
	again := s.Discover()
	if s.EngineStats().FindingMisses != misses {
		t.Error("repeat discovery on frozen world re-validated paths")
	}
	if !reflect.DeepEqual(got, again) {
		t.Error("repeat discovery differs from first pass")
	}
}

func TestFleetScanSharesHostReads(t *testing.T) {
	const n = 5
	r, err := FleetScan(context.Background(), chaos.Spec{}, 0, n, 4)
	if err != nil {
		t.Fatalf("FleetScan: %v", err)
	}
	if r.Containers != n || len(r.LeakingPerContainer) != n {
		t.Fatalf("fleet result shape: %+v", r)
	}
	for i := 1; i < n; i++ {
		if r.LeakingPerContainer[i] != r.LeakingPerContainer[0] {
			t.Errorf("container %d leak count %d != container 0's %d (identical policies)",
				i, r.LeakingPerContainer[i], r.LeakingPerContainer[0])
		}
	}
	if r.LeakingPerContainer[0] == 0 {
		t.Error("fleet scan found no leaking files on the undefended testbed")
	}
	if r.Stats.HostHits == 0 {
		t.Error("fleet scan shared no host reads across containers")
	}
	if r.Stats.HostRenders >= r.Stats.HostRenders+r.Stats.HostHits {
		t.Error("impossible counter state") // keeps the fields honest under refactors
	}

	if _, err := FleetScan(context.Background(), chaos.Spec{}, 0, 0, 1); err == nil {
		t.Error("fleet scan accepted 0 containers")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FleetScan(ctx, chaos.Spec{}, 0, 1, 1); err == nil {
		t.Error("fleet scan ignored a cancelled context")
	}
}
