package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/perfcount"
	"repro/internal/pseudofs"
)

// world is a minimal testbed: one kernel, its pseudo tree, a Docker-style
// runtime, a host mount, and one probe container.
type world struct {
	k    *kernel.Kernel
	fs   *pseudofs.FS
	rt   *container.Runtime
	host *pseudofs.Mount
	cont *pseudofs.Mount
}

func buildWorld(t testing.TB, seed int64) *world {
	t.Helper()
	k := kernel.New(kernel.Options{Hostname: "engine-host", Seed: seed})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	rt := container.NewRuntime(k, fs, container.DockerProfile())
	probe := rt.Create("probe")
	k.Tick(10, 1)
	return &world{
		k:    k,
		fs:   fs,
		rt:   rt,
		host: pseudofs.NewMount(fs, pseudofs.HostView(k), pseudofs.Policy{}),
		cont: probe.Mount(),
	}
}

func TestSecondPassServedEntirelyFromCache(t *testing.T) {
	w := buildWorld(t, 1)
	eng := engine.New(w.host)

	first := eng.Validate(w.cont)
	renders := w.fs.Renders()
	st := eng.Stats()
	if st.FindingMisses != uint64(len(first)) || st.FindingHits != 0 {
		t.Fatalf("first pass: misses=%d hits=%d, want %d/0", st.FindingMisses, st.FindingHits, len(first))
	}

	second := eng.Validate(w.cont)
	if got := w.fs.Renders(); got != renders {
		t.Errorf("second pass over unmutated kernel performed %d pseudo-file re-renders, want 0", got-renders)
	}
	st = eng.Stats()
	if st.FindingHits != uint64(len(first)) {
		t.Errorf("second pass: finding hits = %d, want %d", st.FindingHits, len(first))
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached second pass differs from first pass")
	}
}

func TestValidateMatchesColdScan(t *testing.T) {
	w := buildWorld(t, 2)
	eng := engine.New(w.host)
	got := eng.Validate(w.cont)
	want := core.CrossValidate(w.host, w.cont)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine first pass differs from cold core.CrossValidate")
	}
}

// TestByteIdentityProperty is the engine's hard guarantee: after ANY
// sequence of kernel mutations, an incremental pass returns exactly what a
// cold cross-validation returns at the same instant. Randomized but
// seeded — failures reproduce.
func TestByteIdentityProperty(t *testing.T) {
	w := buildWorld(t, 3)
	eng := engine.New(w.host)
	rnd := rand.New(rand.NewSource(0xbeef))
	var tasks []*kernel.Task

	steps := 40
	if testing.Short() {
		steps = 12
	}
	for step := 0; step < steps; step++ {
		// One random mutation (or none: epochs stand still, pure cache pass).
		switch rnd.Intn(7) {
		case 0:
			w.k.Tick(w.k.Now()+float64(1+rnd.Intn(3)), 1)
		case 1:
			tk := w.k.Spawn(fmt.Sprintf("w%d", step), w.k.InitNS(),
				fmt.Sprintf("/docker/c%d", rnd.Intn(4)), rnd.Float64(), perfcount.Rates{})
			tasks = append(tasks, tk)
		case 2:
			if len(tasks) > 0 {
				i := rnd.Intn(len(tasks))
				w.k.Exit(tasks[i].HostPID)
				tasks = append(tasks[:i], tasks[i+1:]...)
			}
		case 3:
			cg := w.k.Cgroup(fmt.Sprintf("/docker/c%d", rnd.Intn(4)))
			cg.QuotaCores = 1 + rnd.Float64()
		case 4:
			w.k.AddHostNetDev(fmt.Sprintf("veth%d", step))
		case 5:
			if len(tasks) > 0 {
				w.k.AddFileLock(tasks[rnd.Intn(len(tasks))], "WRITE", uint64(step))
			}
		case 6:
			// no mutation
		}

		got := eng.Validate(w.cont)
		want := core.CrossValidate(w.host, w.cont)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("step %d: finding for %s diverged:\nengine: %+v\ncold:   %+v",
						step, want[i].Path, got[i], want[i])
				}
			}
			t.Fatalf("step %d: engine output diverged from cold scan", step)
		}
	}
	st := eng.Stats()
	if st.FindingHits == 0 || st.FindingMisses == 0 {
		t.Errorf("property run exercised no cache boundary: hits=%d misses=%d", st.FindingHits, st.FindingMisses)
	}
}

func TestFleetValidateSharesHostReads(t *testing.T) {
	k := kernel.New(kernel.Options{Hostname: "fleet-host", Seed: 4})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	rt := container.NewRuntime(k, fs, container.DockerProfile())
	const n = 4
	mounts := make([]*pseudofs.Mount, 0, n)
	for i := 0; i < n; i++ {
		mounts = append(mounts, rt.Create(fmt.Sprintf("tenant-%d", i)).Mount())
	}
	k.Tick(10, 1)
	host := pseudofs.NewMount(fs, pseudofs.HostView(k), pseudofs.Policy{})

	eng := engine.New(host)
	all := eng.FleetValidate(mounts, 4)
	if len(all) != n {
		t.Fatalf("fleet pass returned %d result sets, want %d", len(all), n)
	}
	for i, m := range mounts {
		want := core.CrossValidate(host, m)
		if !reflect.DeepEqual(all[i], want) {
			t.Fatalf("container %d: fleet findings differ from cold per-container scan", i)
		}
	}
	st := eng.Stats()
	paths := uint64(len(mounts[0].Paths()))
	if st.HostRenders > paths {
		t.Errorf("fleet pass performed %d host renders for %d paths — sharing failed", st.HostRenders, paths)
	}
	if st.HostHits == 0 {
		t.Error("fleet pass recorded no shared host reads")
	}

	// After one tick, a pass renders each dirty path at most once for the
	// host, and in each container only the dirty paths it cannot take
	// from that host read: those not shared, not plain on both mounts, or
	// volatile (core's quorum reads one three times).
	epochs := make([]uint64, paths)
	for i := range epochs {
		epochs[i] = fs.PathEpochAt(i)
	}
	k.Tick(11, 1)
	var dirty, perContainer uint64
	for i, ep := range epochs {
		if fs.PathEpochAt(i) == ep {
			continue
		}
		dirty++
		switch {
		case fs.DepAt(i).Volatile:
			perContainer += 3
		case !fs.SharedAt(i) || !host.PlainAt(i) || !mounts[0].PlainAt(i):
			perContainer++
		}
	}
	before := fs.Renders()
	eng.FleetValidate(mounts, 4)
	bound := dirty + n*perContainer
	if got := fs.Renders() - before; got > bound || got == 0 {
		t.Errorf("pass after one tick rendered %d times, want 1..%d (%d dirty paths, %d per container)", got, bound, dirty, perContainer)
	}
}

// TestValidateMatchesColdScanOnFixedWorlds pins the engine to core on
// worlds where Replace handlers, power-namespace providers and provider
// masks decide which paths a container may take from the host read: a
// stage-2/3-defended server and each commercial cloud, at two ticks.
func TestValidateMatchesColdScanOnFixedWorlds(t *testing.T) {
	cfgs := map[string]cloud.Config{"defended": {Seed: 41, Defended: true}}
	for _, prof := range cloud.CommercialClouds() {
		prof := prof
		cfgs[prof.Name] = cloud.Config{Seed: 42, Provider: &prof}
	}
	for name, cfg := range cfgs {
		cfg.Racks, cfg.ServersPerRack = 1, 1
		dc := cloud.New(cfg)
		srv := dc.Racks[0].Servers[0]
		if cfg.Defended {
			defense.ApplyStatisticsFixes(srv.FS)
		}
		var mounts []*pseudofs.Mount
		for i := 0; i < 2; i++ {
			_, c, err := dc.Launch("tenant", fmt.Sprintf("probe-%d", i), 1)
			if err != nil {
				t.Fatal(err)
			}
			mounts = append(mounts, c.Mount())
		}
		host := srv.HostMount()
		eng := engine.New(host)
		for _, tick := range []float64{30, 31} {
			dc.Clock.Run(tick, 1)
			all := eng.FleetValidate(mounts, 2)
			for i, m := range mounts {
				if want := core.CrossValidate(host, m); !reflect.DeepEqual(all[i], want) {
					t.Errorf("%s t=%g container %d: engine findings differ from cold scan", name, tick, i)
				}
			}
		}
	}
}

func TestChaosBypassIsUncachedAndIdentical(t *testing.T) {
	spec := chaos.Spec{Rate: 0.05, Seed: 9}

	// Twin worlds, one armed per path under test: the engine on a faulty FS
	// must produce exactly what the uncached sweep produces.
	we := buildWorld(t, 5)
	chaos.Install(we.fs, spec, "engine-host")
	wc := buildWorld(t, 5)
	chaos.Install(wc.fs, spec, "engine-host")

	eng := engine.New(we.host)
	got := eng.Validate(we.cont)
	want := core.CrossValidate(wc.host, wc.cont)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("chaos-armed engine pass differs from uncached twin-world sweep")
	}
	st := eng.Stats()
	if st.BypassedPasses != 1 || st.Passes != 0 {
		t.Errorf("chaos pass counters: bypassed=%d passes=%d, want 1/0", st.BypassedPasses, st.Passes)
	}
	if st.FindingHits+st.FindingMisses+st.HostRenders+st.HostHits != 0 {
		t.Errorf("chaos bypass touched the caches: %+v", st)
	}
}

func TestForgetAndReset(t *testing.T) {
	w := buildWorld(t, 6)
	eng := engine.New(w.host)
	before := eng.Validate(w.cont)

	eng.Forget(w.cont)
	if st := eng.Stats(); st.CachedFindings != 0 {
		t.Errorf("Forget left %d cached findings", st.CachedFindings)
	}
	eng.Reset()
	if st := eng.Stats(); st.CachedFindings != 0 || st.CachedHostPaths != 0 {
		t.Errorf("Reset left caches populated: %+v", st.CachedFindings)
	}
	after := eng.Validate(w.cont)
	if !reflect.DeepEqual(before, after) {
		t.Error("post-Reset pass differs from original pass")
	}
}

func TestMismatchedFSPanics(t *testing.T) {
	w1 := buildWorld(t, 7)
	w2 := buildWorld(t, 8)
	eng := engine.New(w1.host)
	defer func() {
		if recover() == nil {
			t.Error("validating a mount from another FS did not panic")
		}
	}()
	eng.Validate(w2.cont)
}

func TestStatsEpochsTrackKernel(t *testing.T) {
	w := buildWorld(t, 9)
	eng := engine.New(w.host)
	g1 := eng.Stats().Generation
	w.k.Tick(w.k.Now()+1, 1)
	st := eng.Stats()
	if st.Generation <= g1 {
		t.Errorf("stats generation did not advance on tick: %d -> %d", g1, st.Generation)
	}
	if len(st.Epochs) != int(kernel.NumSubsystems) {
		t.Errorf("stats epochs cover %d subsystems, want %d", len(st.Epochs), kernel.NumSubsystems)
	}
}
