package engine

import (
	"testing"
	"unsafe"

	"repro/internal/kernel"
	"repro/internal/pseudofs"
)

// TestBeginTakesStaleEntriesFromOneBlock checks how a pass refreshes host
// entries: every stale entry of a pass comes from one contiguous block,
// fresh entries are reused, and a pass begun earlier keeps its own.
func TestBeginTakesStaleEntriesFromOneBlock(t *testing.T) {
	k := kernel.New(kernel.Options{Hostname: "begin-host", Seed: 3})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	host := pseudofs.NewMount(fs, pseudofs.HostView(k), pseudofs.Policy{})
	e := New(host)
	conts := []*pseudofs.Mount{host}

	first := e.begin(conts)
	assertOneBlock(t, first.hosts)
	k.Tick(k.Now()+1, 1) // moves every tick-dependent epoch
	second := e.begin(conts)

	var stale []*hostEntry
	for i, h := range second.hosts {
		if first.epochs[i] == second.epochs[i] {
			if h != first.hosts[i] {
				t.Errorf("%s: unchanged epoch, but the entry was replaced", e.paths[i])
			}
			continue
		}
		if h == first.hosts[i] || first.hosts[i].epoch != first.epochs[i] {
			t.Errorf("%s: stale entry not replaced, or the earlier pass's entry changed", e.paths[i])
		}
		stale = append(stale, h)
	}
	if len(stale) == 0 || len(stale) == len(e.paths) {
		t.Fatalf("%d of %d paths went stale on a tick; want some but not all", len(stale), len(e.paths))
	}
	assertOneBlock(t, stale)
}

// assertOneBlock fails unless the entries sit back to back in memory, in
// order.
func assertOneBlock(t *testing.T, hs []*hostEntry) {
	t.Helper()
	for i := 1; i < len(hs); i++ {
		if uintptr(unsafe.Pointer(hs[i]))-uintptr(unsafe.Pointer(hs[i-1])) != unsafe.Sizeof(hostEntry{}) {
			t.Fatalf("entry %d is not next to entry %d in one block", i, i-1)
		}
	}
}
