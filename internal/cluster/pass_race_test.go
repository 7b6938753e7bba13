package cluster

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestDuplicateShardDeliveryRace: a shard can reach one replica twice at
// the same tick (a chaos Dup link, a retried lost reply), concurrently with
// other shards that share containers with it. Two Passes over overlapping
// container sets and a direct engine validation of one shared container run
// at once; run under -race, they must not race, every result must equal
// the single-node scan, and every (container, path) validation must be
// counted exactly once as a hit or a miss.
func TestDuplicateShardDeliveryRace(t *testing.T) {
	const containers = 6
	tick := float64(DefaultTick + 1)
	spec := Spec{Provider: "local", Containers: containers}
	w, err := BuildFleetWorld(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Advance before the validations start, so that none of them can
	// overlap a moving clock (the direct engine call below bypasses Pass).
	if err := w.advance(tick); err != nil {
		t.Fatal(err)
	}
	spec.Tick = tick
	ref, _, err := SingleNode(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	refWorld, err := BuildFleetWorld(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := refWorld.Pass(tick, allContainers(containers), 1); err != nil {
		t.Fatal(err)
	}
	want := refWorld.Stats()

	sets := [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}}
	const solo = 3
	results := make([][][]core.Finding, len(sets))
	errs := make([]error, len(sets))
	var soloRes []core.Finding
	var wg sync.WaitGroup
	for i, set := range sets {
		wg.Add(1)
		go func(i int, set []int) {
			defer wg.Done()
			results[i], _, errs[i] = w.Pass(tick, set, 2)
		}(i, set)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.mu.RLock()
		defer w.mu.RUnlock()
		soloRes = w.eng.Validate(w.mounts[solo])
	}()
	wg.Wait()

	for i, set := range sets {
		if errs[i] != nil {
			t.Fatalf("pass %d: %v", i, errs[i])
		}
		for j, ci := range set {
			if !bytes.Equal(mustJSON(t, results[i][j]), mustJSON(t, ref[ci])) {
				t.Errorf("pass %d, container %d: findings differ from single-node", i, ci)
			}
		}
	}
	if !bytes.Equal(mustJSON(t, soloRes), mustJSON(t, ref[solo])) {
		t.Errorf("direct validation of container %d differs from single-node", solo)
	}

	st := w.Stats()
	paths := uint64(len(w.mounts[0].Paths()))
	validations := uint64(len(sets[0])+len(sets[1])+1) * paths
	if st.Passes != 3 {
		t.Errorf("passes = %d, want 3", st.Passes)
	}
	if st.FindingHits+st.FindingMisses != validations {
		t.Errorf("hits %d + misses %d != %d validations", st.FindingHits, st.FindingMisses, validations)
	}
	// Each container is re-validated once at this tick, whichever pass
	// reaches it first; every later validation of it is a pure hit. So the
	// misses and host reads are those of one serial pass over the fleet.
	if st.FindingMisses != want.FindingMisses || st.HostRenders != want.HostRenders || st.HostHits != want.HostHits {
		t.Errorf("misses/host renders/host hits = %d/%d/%d, want %d/%d/%d (one serial pass)",
			st.FindingMisses, st.HostRenders, st.HostHits, want.FindingMisses, want.HostRenders, want.HostHits)
	}
	if st.CachedFindings != int(containers*paths) {
		t.Errorf("cached findings = %d, want %d", st.CachedFindings, containers*paths)
	}
}
