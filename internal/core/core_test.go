package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/kernel"
	"repro/internal/pseudofs"
	"repro/internal/workload"
)

func newTestbed(t *testing.T, seed int64) (*kernel.Kernel, *container.Runtime, *container.Container) {
	t.Helper()
	k := kernel.New(kernel.Options{Hostname: "node", Seed: seed})
	fs := pseudofs.Build(k, pseudofs.DefaultHardware())
	r := container.NewRuntime(k, fs, container.DockerProfile())
	c := r.Create("probe")
	return k, r, c
}

func hostMount(k *kernel.Kernel, r *container.Runtime) *pseudofs.Mount {
	return pseudofs.NewMount(r.FS(), pseudofs.HostView(k), pseudofs.Policy{})
}

func TestCrossValidateLocalTestbedFindsLeaks(t *testing.T) {
	k, r, c := newTestbed(t, 1)
	k.Tick(10, 10)
	findings := CrossValidate(hostMount(k, r), c.Mount())
	byPath := map[string]Finding{}
	for _, f := range findings {
		byPath[f.Path] = f
	}

	leaks := []string{
		"/proc/uptime", "/proc/version", "/proc/meminfo", "/proc/stat",
		"/proc/loadavg", "/proc/interrupts", "/proc/softirqs", "/proc/sched_debug",
		"/proc/timer_list", "/proc/zoneinfo", "/proc/modules", "/proc/cpuinfo",
		"/proc/schedstat", "/proc/sys/kernel/random/boot_id",
		"/sys/class/powercap/intel-rapl:0/energy_uj",
		"/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
	}
	for _, p := range leaks {
		if got := byPath[p].Status; got != Identical {
			t.Errorf("%s = %v, want identical (leak)", p, got)
		}
	}

	namespaced := []string{"/proc/sys/kernel/hostname", "/proc/self/cgroup"}
	for _, p := range namespaced {
		if got := byPath[p].Status; got != Namespaced {
			t.Errorf("%s = %v, want namespaced", p, got)
		}
	}

	if got := byPath["/proc/sys/kernel/random/uuid"].Status; got != Volatile {
		t.Errorf("uuid = %v, want volatile", got)
	}
	// Paths outside the tree are never validated.
	if got := byPath["/proc/kcore"].Status; got != Unknown {
		t.Errorf("kcore = %v, want unknown (not in tree)", got)
	}
}

// TestCrossValidateRepeatable: validating twice over the same paused world
// yields identical findings — reads must not mutate kernel state
// observable by a later pass.
func TestCrossValidateRepeatable(t *testing.T) {
	k, r, c := newTestbed(t, 7)
	k.Tick(5, 5)
	host := hostMount(k, r)
	first := CrossValidate(host, c.Mount())
	if second := CrossValidate(host, c.Mount()); !reflect.DeepEqual(first, second) {
		t.Fatalf("repeated cross-validation diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

func TestCrossValidateDetectsMasking(t *testing.T) {
	k, r, _ := newTestbed(t, 2)
	hardened := r.Create("hardened",
		pseudofs.Rule{Pattern: "/proc/timer_list", Do: pseudofs.Deny},
		pseudofs.Rule{Pattern: "/proc/sched_debug", Do: pseudofs.Empty},
	)
	findings := CrossValidate(hostMount(k, r), hardened.Mount())
	var timer, sched Finding
	for _, f := range findings {
		switch f.Path {
		case "/proc/timer_list":
			timer = f
		case "/proc/sched_debug":
			sched = f
		}
	}
	if timer.Status != Masked || sched.Status != Masked {
		t.Fatalf("timer=%v sched=%v, want masked", timer.Status, sched.Status)
	}
}

func TestCrossValidateDetectsPartial(t *testing.T) {
	k, r, _ := newTestbed(t, 3)
	k.Tick(5, 5)
	filtered := r.Create("filtered",
		pseudofs.Rule{Pattern: "/proc/meminfo", Do: pseudofs.Filter,
			Transform: func(s string) string {
				lines := strings.SplitN(s, "\n", 4)
				return strings.Join(lines[:3], "\n") + "\n"
			}},
	)
	findings := CrossValidate(hostMount(k, r), filtered.Mount())
	for _, f := range findings {
		if f.Path == "/proc/meminfo" {
			if f.Status != Partial {
				t.Fatalf("meminfo = %v (overlap %.2f), want partial", f.Status, f.Overlap)
			}
			return
		}
	}
	t.Fatal("meminfo not found")
}

func TestLineOverlap(t *testing.T) {
	if o := lineOverlap([]byte("a\nb\n"), lineSet("a\nb\nc\n")); o != 1 {
		t.Fatalf("full overlap = %g", o)
	}
	if o := lineOverlap([]byte("a\nx\n"), lineSet("a\nb\n")); o != 0.5 {
		t.Fatalf("half overlap = %g", o)
	}
	if o := lineOverlap(nil, lineSet("a\n")); o != 0 {
		t.Fatalf("empty overlap = %g", o)
	}
}

func TestFileStatusString(t *testing.T) {
	for s, want := range map[FileStatus]string{
		Identical: "identical", Namespaced: "namespaced", Partial: "partial",
		Masked: "masked", Absent: "absent", Volatile: "volatile",
		FileStatus(99): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestAvailabilityGlyphs(t *testing.T) {
	if Available.String() != "●" || PartiallyAvailable.String() != "◐" || Unavailable.String() != "○" {
		t.Fatal("availability glyphs wrong")
	}
	if MDirect.String() != "●" || MIndirect.String() != "◐" || MNone.String() != "○" {
		t.Fatal("manipulation glyphs wrong")
	}
}

func TestRollUpLocalAllChannelsAvailable(t *testing.T) {
	k, r, c := newTestbed(t, 4)
	k.Tick(10, 10)
	reports := RollUp(TableIChannels(), CrossValidate(hostMount(k, r), c.Mount()))
	if len(reports) != 21 {
		t.Fatalf("reports = %d, want 21 Table I rows", len(reports))
	}
	for _, rep := range reports {
		if rep.Availability != Available {
			t.Errorf("%s = %v on the local testbed, want ● (files: %v)",
				rep.Channel.Name, rep.Availability, rep.Files)
		}
		if len(rep.Files) == 0 {
			t.Errorf("%s matched no files", rep.Channel.Name)
		}
	}
}

func TestAssessMeasuresVariationAndRanks(t *testing.T) {
	k, r, c := newTestbed(t, 5)
	c2 := r.Create("busy")
	c2.Run(workload.Prime, 2)

	now := 0.0
	advance := func() {
		now += 5
		k.Tick(now, 5)
	}
	advance()
	as := Assess(TableIIChannels(), c.Mount(), advance, 8)
	if len(as) != 29 {
		t.Fatalf("assessments = %d, want 29 Table II rows", len(as))
	}
	byName := map[string]Assessment{}
	for _, a := range as {
		byName[a.Channel.Name] = a
	}

	// V metric: boot_id static, uptime/meminfo/stat varying.
	if byName["/proc/sys/kernel/random/boot_id"].Varying {
		t.Error("boot_id must not vary")
	}
	for _, name := range []string{"/proc/uptime", "/proc/meminfo", "/proc/stat", "/proc/locks"} {
		if !byName[name].Varying {
			t.Errorf("%s should vary over time", name)
		}
	}
	if byName["/proc/version"].Varying || byName["/proc/cpuinfo"].Varying {
		t.Error("fleet-static channels must not vary")
	}

	// Rank order: static unique first, implantables next, then dynamic.
	if as[0].Channel.Name != "/proc/sys/kernel/random/boot_id" {
		t.Errorf("rank 1 = %s, want boot_id", as[0].Channel.Name)
	}
	if as[1].Channel.Name != "/sys/fs/cgroup/net_prio/net_prio.ifpriomap" {
		t.Errorf("rank 2 = %s, want ifpriomap", as[1].Channel.Name)
	}
	wantImplant := map[string]bool{"/proc/sched_debug": true, "/proc/timer_list": true, "/proc/locks": true}
	for i := 2; i <= 4; i++ {
		if !wantImplant[as[i].Channel.Name] {
			t.Errorf("rank %d = %s, want an implantable channel", i+1, as[i].Channel.Name)
		}
	}
	// The unrankable bottom: modules/cpuinfo/version with Rank 0.
	for _, name := range []string{"/proc/modules", "/proc/cpuinfo", "/proc/version"} {
		if byName[name].Rank != 0 {
			t.Errorf("%s rank = %d, want unranked (0)", name, byName[name].Rank)
		}
	}
	// Entropy: zoneinfo (dozens of fields) must beat entropy_avail (one).
	if byName["/proc/zoneinfo"].Entropy <= byName["/proc/sys/kernel/random/entropy_avail"].Entropy {
		t.Errorf("zoneinfo entropy %.1f should exceed entropy_avail %.1f",
			byName["/proc/zoneinfo"].Entropy, byName["/proc/sys/kernel/random/entropy_avail"].Entropy)
	}
}

func TestExtractNumbers(t *testing.T) {
	got := extractNumbers("MemTotal: 16342 kB\nload 0.52 x1.5")
	want := []float64{16342, 0.52, 1.5}
	if len(got) != len(want) {
		t.Fatalf("numbers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("numbers = %v, want %v", got, want)
		}
	}
	if n := extractNumbers("no digits"); len(n) != 0 {
		t.Fatalf("unexpected numbers %v", n)
	}
}

func TestDiscoverFiltersKnownChannels(t *testing.T) {
	channels := []Channel{{Name: "known", Paths: []string{"/proc/known*"}}}
	findings := []Finding{
		{Path: "/proc/known1", Status: Identical},
		{Path: "/proc/novel", Status: Identical},
		{Path: "/proc/alsonovel", Status: Partial},
		{Path: "/proc/fine", Status: Namespaced},
		{Path: "/proc/hidden", Status: Masked},
	}
	got := Discover(channels, findings)
	if len(got) != 2 {
		t.Fatalf("discovered = %v", got)
	}
	if got[0].Path != "/proc/novel" || got[1].Path != "/proc/alsonovel" {
		t.Fatalf("discovered = %v", got)
	}
}
