package pseudofs

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/snapshot/snapshottest"
)

func TestFSesOfOneKeyShareLayout(t *testing.T) {
	a := Build(kernel.New(kernel.Options{Seed: 1}), DefaultHardware())
	b := Build(kernel.New(kernel.Options{Seed: 2}), DefaultHardware())
	if a.lay != b.lay {
		t.Fatal("two FSes of one (Hardware, cores) key have distinct layouts")
	}
	if c := Build(kernel.New(kernel.Options{Seed: 1, Cores: 16}), DefaultHardware()); c.lay == a.lay {
		t.Fatal("a 16-core FS shares the 8-core layout")
	}
	if c := Build(kernel.New(kernel.Options{Seed: 1}), Hardware{}); c.lay == a.lay {
		t.Fatal("a sensorless FS shares the default-hardware layout")
	}
}

// fixedEnergy is an EnergyProvider that serves one value to every reader.
type fixedEnergy uint64

func (f fixedEnergy) EnergyUJ(View, power.Domain) (uint64, error) { return uint64(f), nil }

// TestFSesOfOneLayoutStayIsolated mutates one FS through every per-FS
// surface and requires the other FS of the same layout to render and
// report epochs exactly as before.
func TestFSesOfOneLayoutStayIsolated(t *testing.T) {
	ka := kernel.New(kernel.Options{Hostname: "a", Seed: 5})
	kb := kernel.New(kernel.Options{Hostname: "b", Seed: 5})
	a, b := Build(ka, DefaultHardware()), Build(kb, DefaultHardware())
	ma, mb := NewMount(a, HostView(ka), Policy{}), NewMount(b, HostView(kb), Policy{})

	type state struct {
		content map[string]string
		epochs  []uint64
	}
	take := func(fs *FS, m *Mount) state {
		s := state{content: map[string]string{}}
		for i, p := range fs.Paths() {
			if !fs.DepAt(i).Volatile {
				s.content[p] = mustRead(t, m, p)
			}
			s.epochs = append(s.epochs, fs.PathEpochAt(i))
		}
		return s
	}
	before := take(b, mb)
	rendersB := b.Renders()

	patched := func(dst []byte, _ View) ([]byte, error) { return append(dst, "patched\n"...), nil }
	a.Replace("/proc/uptime", patched)
	a.SetEnergyProvider(fixedEnergy(7))
	snap := a.Snapshot()
	a.Replace("/proc/loadavg", patched)
	a.Restore(snap)
	a.Restore(snap)
	a.Replace("/proc/version", patched)

	if got := mustRead(t, ma, "/proc/uptime"); got != "patched\n" {
		t.Fatalf("a: Replace ineffective after Restore: %q", got)
	}
	if got := mustRead(t, ma, "/proc/loadavg"); got == "patched\n" {
		t.Fatal("a: Restore kept a Replace made after the snapshot")
	}
	if got := mustRead(t, ma, "/sys/class/powercap/intel-rapl:0/energy_uj"); got != "7\n" {
		t.Fatalf("a: energy provider not in force: %q", got)
	}

	if b.Renders() != rendersB {
		t.Fatalf("b's render counter moved from %d to %d while only a was read", rendersB, b.Renders())
	}
	after := take(b, mb)
	if !slices.Equal(before.epochs, after.epochs) {
		t.Error("b's path epochs moved when a was mutated")
	}
	for p, want := range before.content {
		if got := after.content[p]; got != want {
			t.Errorf("b: %s changed when a was mutated:\n got %q\nwant %q", p, got, want)
		}
	}
}

// TestConcurrentBuildsShareOneLayout builds FSes of one fresh key from many
// goroutines; under -race it checks the memo's locking.
func TestConcurrentBuildsShareOneLayout(t *testing.T) {
	const n = 8
	var wg sync.WaitGroup
	got := make([]*layout, n)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := kernel.New(kernel.Options{Seed: int64(i), Cores: 13})
			got[i] = Build(k, Hardware{HasRAPL: true}).lay
		}()
	}
	wg.Wait()
	for i, l := range got {
		if l != got[0] {
			t.Fatalf("build %d got a different layout", i)
		}
	}
}

// TestMemoizedLayoutMatchesFresh compares the shared layout of every
// Hardware the providers use (each sensor on or off) and three core counts
// with one computed afresh. Render functions capture nothing, so they
// compare by code pointer.
func TestMemoizedLayoutMatchesFresh(t *testing.T) {
	for _, hw := range []Hardware{{}, {HasRAPL: true}, {HasCoretemp: true}, DefaultHardware()} {
		for _, cores := range []int{8, 16, 24} {
			key := layoutKey{hw: hw, cores: cores}
			got, want := layoutFor(key), newLayout(key)
			if !reflect.DeepEqual(got.paths, want.paths) || !reflect.DeepEqual(got.index, want.index) ||
				!reflect.DeepEqual(got.deps, want.deps) || !reflect.DeepEqual(got.arg, want.arg) ||
				!reflect.DeepEqual(got.text, want.text) {
				t.Errorf("%+v: memoized layout data differs from a fresh one", key)
			}
			if len(got.global) != len(want.global) || len(got.view) != len(want.view) {
				t.Fatalf("%+v: %d+%d renders, fresh layout has %d+%d", key,
					len(got.global), len(got.view), len(want.global), len(want.view))
			}
			ptr := func(f any) uintptr { return reflect.ValueOf(f).Pointer() }
			for i := range got.global {
				if ptr(got.global[i]) != ptr(want.global[i]) || ptr(got.view[i]) != ptr(want.view[i]) {
					t.Errorf("%+v: %s renders through a different function", key, got.paths[i])
				}
				if (got.global[i] == nil) == (got.view[i] == nil) {
					t.Errorf("%+v: %s needs exactly one of a global and a view render", key, got.paths[i])
				}
			}
			if n := len(got.paths); n != len(got.index) || n != len(got.deps) || n != len(got.arg) ||
				n != len(got.global) || n != len(got.view) {
				t.Errorf("%+v: layout columns have different lengths", key)
			}
		}
	}
}

// fsStateExempt lists the FS fields outside fsState, the state struct
// Snapshot copies, each with the reason.
var fsStateExempt = map[string]string{
	"k":       "the kernel has its own snapshot (kernel.Snapshot), and an FS never swaps it",
	"lay":     "the layout is shared, immutable, and a pure function of the FS's key",
	"renders": "an atomic, which a struct copy may not copy; captured as FSState.renders",
}

// TestFSStateCapturesEveryFSField fails when a field is added to FS
// outside fsState (so Snapshot/Restore would silently let it escape)
// without an exemption saying why it needs none.
func TestFSStateCapturesEveryFSField(t *testing.T) {
	if stray := snapshottest.Stray(reflect.TypeFor[FS](), "fsState", fsStateExempt); len(stray) > 0 {
		t.Errorf("FS fields outside fsState and not exempt: %v", stray)
	}
}

// TestFSStateGuardFires is the guard's own test: a struct with one field
// more than FS must be reported.
func TestFSStateGuardFires(t *testing.T) {
	type grown struct {
		FS
		escaped uint64
	}
	if got := snapshottest.Stray(reflect.TypeFor[grown](), "fsState", fsStateExempt); !slices.Equal(got, []string{"escaped"}) {
		t.Errorf("guard reported %v for an FS with one uncaptured field, want [escaped]", got)
	}
}

// TestFSStateSharesNothing checks that a capture and the live FS share no
// slice, right after Snapshot and after a Restore that followed another
// Replace (which writes the override slots in place).
func TestFSStateSharesNothing(t *testing.T) {
	fs := Build(kernel.New(kernel.Options{Seed: 9}), DefaultHardware())
	patched := func(dst []byte, _ View) ([]byte, error) { return append(dst, "patched\n"...), nil }
	fs.Replace("/proc/uptime", patched)
	s := fs.Snapshot()
	for _, stage := range []string{"Snapshot", "Restore"} {
		if stage == "Restore" {
			fs.Replace("/proc/loadavg", patched)
			fs.Restore(s)
		}
		if shared := snapshottest.Shared(fs.fsState, s.s); len(shared) > 0 {
			t.Errorf("after %s the capture shares memory with the live FS: %v", stage, shared)
		}
	}
}
