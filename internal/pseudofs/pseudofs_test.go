package pseudofs

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/perfcount"
	"repro/internal/power"
)

func newHost(seed int64) (*kernel.Kernel, *FS) {
	k := kernel.New(kernel.Options{Hostname: "node-a", Seed: seed})
	return k, Build(k, DefaultHardware())
}

func containerView(k *kernel.Kernel, name, cgroup string) View {
	ns := k.NewNSSet(name, cgroup)
	return View{NS: ns, CgroupPath: cgroup}
}

func mustRead(t *testing.T, m *Mount, path string) string {
	t.Helper()
	s, err := m.Read(path)
	if err != nil {
		t.Fatalf("Read(%s): %v", path, err)
	}
	return s
}

func TestBuildRegistersExpectedChannels(t *testing.T) {
	_, fs := newHost(1)
	paths := fs.Paths()
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	for _, want := range []string{
		"/proc/uptime", "/proc/version", "/proc/loadavg", "/proc/meminfo",
		"/proc/zoneinfo", "/proc/stat", "/proc/cpuinfo", "/proc/interrupts",
		"/proc/softirqs", "/proc/schedstat", "/proc/sched_debug",
		"/proc/timer_list", "/proc/locks", "/proc/modules",
		"/proc/sys/fs/dentry-state", "/proc/sys/fs/inode-nr", "/proc/sys/fs/file-nr",
		"/proc/sys/kernel/random/boot_id", "/proc/sys/kernel/random/entropy_avail",
		"/proc/sys/kernel/sched_domain/cpu0/domain0/max_newidle_lb_cost",
		"/proc/fs/ext4/sda1/mb_groups",
		"/sys/fs/cgroup/net_prio/net_prio.ifpriomap",
		"/sys/devices/system/node/node0/numastat",
		"/sys/devices/system/cpu/cpu0/cpuidle/state0/usage",
		"/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp2_input",
		"/sys/class/powercap/intel-rapl:0/energy_uj",
		"/sys/class/powercap/intel-rapl:0/intel-rapl:0:0/energy_uj",
		"/sys/class/powercap/intel-rapl:0/intel-rapl:0:1/energy_uj",
	} {
		if !set[want] {
			t.Errorf("missing channel %s", want)
		}
	}
}

func TestHardwareGatesSensors(t *testing.T) {
	k := kernel.New(kernel.Options{Seed: 2})
	fs := Build(k, Hardware{HasRAPL: false, HasCoretemp: false})
	m := NewMount(fs, HostView(k), Policy{})
	if _, err := m.Read("/sys/class/powercap/intel-rapl:0/energy_uj"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("RAPL should be absent, got %v", err)
	}
	if _, err := m.Read("/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp1_input"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("coretemp should be absent, got %v", err)
	}
}

func TestGlobalChannelsIdenticalAcrossContexts(t *testing.T) {
	k, fs := newHost(3)
	host := NewMount(fs, HostView(k), Policy{})
	cont := NewMount(fs, containerView(k, "c1", "/docker/c1"), Policy{})
	k.Tick(10, 10)

	// Every Table I channel must read identically from host and container
	// — that identity IS the leak.
	for _, p := range []string{
		"/proc/uptime", "/proc/version", "/proc/meminfo", "/proc/stat",
		"/proc/loadavg", "/proc/interrupts", "/proc/softirqs",
		"/proc/sys/kernel/random/boot_id", "/proc/zoneinfo",
		"/sys/class/powercap/intel-rapl:0/energy_uj",
	} {
		h := mustRead(t, host, p)
		c := mustRead(t, cont, p)
		if h != c {
			t.Errorf("%s differs between host and container:\nhost: %q\ncont: %q", p, h, c)
		}
	}
}

func TestNamespacedChannelsDiffer(t *testing.T) {
	k, fs := newHost(4)
	host := NewMount(fs, HostView(k), Policy{})
	cont := NewMount(fs, containerView(k, "web-1", "/docker/web1"), Policy{})

	if h, c := mustRead(t, host, "/proc/sys/kernel/hostname"), mustRead(t, cont, "/proc/sys/kernel/hostname"); h == c {
		t.Errorf("hostname should be namespaced: both %q", h)
	} else if !strings.Contains(c, "web-1") {
		t.Errorf("container hostname = %q", c)
	}
	if h, c := mustRead(t, host, "/proc/net/dev"), mustRead(t, cont, "/proc/net/dev"); h == c {
		t.Error("net/dev should be namespaced")
	} else if strings.Contains(c, "docker0") {
		t.Error("container must not see docker0 in namespaced net/dev")
	}
	if h, c := mustRead(t, host, "/proc/self/cgroup"), mustRead(t, cont, "/proc/self/cgroup"); h == c {
		t.Error("self/cgroup should be namespaced")
	}
}

func TestIfpriomapLeaksHostDevices(t *testing.T) {
	k, fs := newHost(5)
	cont := NewMount(fs, containerView(k, "c1", "/docker/c1"), Policy{})
	got := mustRead(t, cont, "/sys/fs/cgroup/net_prio/net_prio.ifpriomap")
	// The container's NET namespace has only lo+eth0, yet the buggy
	// handler lists all host devices, including docker0 and eth1.
	for _, dev := range []string{"lo", "eth0", "eth1", "docker0"} {
		if !strings.Contains(got, dev+" ") {
			t.Errorf("ifpriomap missing host device %s:\n%s", dev, got)
		}
	}
}

func TestSchedDebugShowsForeignTaskNames(t *testing.T) {
	k, fs := newHost(6)
	// A task with a crafted name in container A...
	nsA := k.NewNSSet("a", "/docker/a")
	k.Spawn("cores-sig-12345", nsA, "/docker/a", 0.1, perfcount.Rates{})
	// ...is visible in container B's sched_debug.
	contB := NewMount(fs, containerView(k, "b", "/docker/b"), Policy{})
	if got := mustRead(t, contB, "/proc/sched_debug"); !strings.Contains(got, "cores-sig-12345") {
		t.Fatalf("sched_debug does not leak foreign task name:\n%s", got)
	}
}

func TestTimerListShowsImplants(t *testing.T) {
	k, fs := newHost(7)
	nsA := k.NewNSSet("a", "/docker/a")
	task := k.Spawn("timer-sig-777", nsA, "/docker/a", 0, perfcount.Rates{})
	task.HasTimer = true
	contB := NewMount(fs, containerView(k, "b", "/docker/b"), Policy{})
	if got := mustRead(t, contB, "/proc/timer_list"); !strings.Contains(got, "timer-sig-777") {
		t.Fatalf("timer_list does not leak implant:\n%s", got)
	}
}

func TestLocksShowImplants(t *testing.T) {
	k, fs := newHost(8)
	nsA := k.NewNSSet("a", "/docker/a")
	task := k.Spawn("locker", nsA, "/docker/a", 0, perfcount.Rates{})
	k.AddFileLock(task, "WRITE", 987654)
	contB := NewMount(fs, containerView(k, "b", "/docker/b"), Policy{})
	if got := mustRead(t, contB, "/proc/locks"); !strings.Contains(got, "987654") {
		t.Fatalf("locks does not leak implant:\n%s", got)
	}
}

func TestEnergyUJTracksMeter(t *testing.T) {
	k, fs := newHost(9)
	cont := NewMount(fs, containerView(k, "c", "/docker/c"), Policy{})
	k.Spawn("w", k.InitNS(), "/", 8, perfcount.Rates{Instructions: 2.4e10, Cycles: 2.7e10, CacheMisses: 4e7, BranchMisses: 1e8})
	k.Tick(1, 1)
	r1 := strings.TrimSpace(mustRead(t, cont, "/sys/class/powercap/intel-rapl:0/energy_uj"))
	k.Tick(2, 1)
	r2 := strings.TrimSpace(mustRead(t, cont, "/sys/class/powercap/intel-rapl:0/energy_uj"))
	if r1 == r2 {
		t.Fatal("energy counter did not advance")
	}
}

func TestSetEnergyProviderVirtualizesRAPL(t *testing.T) {
	k, fs := newHost(10)
	fs.SetEnergyProvider(fakeEnergy{})
	cont := NewMount(fs, containerView(k, "c", "/docker/c"), Policy{})
	if got := mustRead(t, cont, "/sys/class/powercap/intel-rapl:0/energy_uj"); strings.TrimSpace(got) != "42" {
		t.Fatalf("virtualized energy = %q, want 42", got)
	}
}

type fakeEnergy struct{}

func (fakeEnergy) EnergyUJ(View, power.Domain) (uint64, error) { return 42, nil }

func TestPolicyDenyAndEmpty(t *testing.T) {
	k, fs := newHost(11)
	pol := Policy{Name: "harden", Rules: []Rule{
		{Pattern: "/proc/timer_list", Do: Deny},
		{Pattern: "/proc/sys/kernel/random/boot_id", Do: Empty},
		{Pattern: "/sys/class/powercap/**", Do: Deny},
	}}
	m := NewMount(fs, containerView(k, "c", "/docker/c"), pol)
	if _, err := m.Read("/proc/timer_list"); !errors.Is(err, ErrDenied) {
		t.Fatalf("timer_list should be denied, got %v", err)
	}
	if got := mustRead(t, m, "/proc/sys/kernel/random/boot_id"); got != "" {
		t.Fatalf("boot_id should be empty, got %q", got)
	}
	if _, err := m.Read("/sys/class/powercap/intel-rapl:0/energy_uj"); !errors.Is(err, ErrDenied) {
		t.Fatalf("subtree deny failed: %v", err)
	}
	// Unmatched paths still readable.
	mustRead(t, m, "/proc/uptime")
}

func TestPolicyFirstMatchWins(t *testing.T) {
	p := Policy{Rules: []Rule{
		{Pattern: "/proc/meminfo", Do: Allow},
		{Pattern: "/proc/**", Do: Deny},
	}}
	if r, ok := p.Lookup("/proc/meminfo"); !ok || r.Do != Allow {
		t.Fatal("explicit allow should win")
	}
	if r, ok := p.Lookup("/proc/stat"); !ok || r.Do != Deny {
		t.Fatal("subtree deny should apply")
	}
	if _, ok := p.Lookup("/sys/x"); ok {
		t.Fatal("default should be no-match (allow)")
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, path string
		want      bool
	}{
		{"/proc/uptime", "/proc/uptime", true},
		{"/proc/uptime", "/proc/uptimes", false},
		{"/proc/sys/kernel/random/*", "/proc/sys/kernel/random/boot_id", true},
		{"/proc/sys/kernel/random/*", "/proc/sys/kernel/random", false},
		{"/proc/**", "/proc/a/b/c", true},
		{"/proc/**", "/proc", true},
		{"/proc/**", "/procfake", false},
		{"/sys/devices/system/cpu/cpu*/cpuidle/state*/usage", "/sys/devices/system/cpu/cpu3/cpuidle/state2/usage", true},
		{"/sys/devices/system/cpu/cpu*/cpuidle/state*/usage", "/sys/devices/system/cpu/cpu3/cpuidle/state2/time", false},
		{"/a/*b*/c", "/a/xbyz/c", true},
		{"/a/*b*/c", "/a/xyz/c", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.pat, c.path); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pat, c.path, got, c.want)
		}
	}
}

func TestReadUnknownPath(t *testing.T) {
	k, fs := newHost(12)
	m := NewMount(fs, HostView(k), Policy{})
	if _, err := m.Read("/proc/nonexistent"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	_, fs := newHost(13)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate add should panic")
		}
	}()
	fs.add("/proc/uptime", nil)
}

func TestViewIsHost(t *testing.T) {
	k, _ := newHost(14)
	if !HostView(k).IsHost() {
		t.Fatal("HostView must be host")
	}
	if (View{}).IsHost() != true {
		t.Fatal("nil-NS view treated as host")
	}
	cv := containerView(k, "c", "/c")
	if cv.IsHost() {
		t.Fatal("container view must not be host")
	}
}

func TestCpuacctUsagePerCgroup(t *testing.T) {
	k, fs := newHost(15)
	ns := k.NewNSSet("c1", "/docker/c1")
	k.Spawn("w", ns, "/docker/c1", 2, perfcount.Rates{Instructions: 6e9, Cycles: 6.8e9})
	k.Tick(10, 10)
	cont := NewMount(fs, View{NS: ns, CgroupPath: "/docker/c1"}, Policy{})
	got := strings.TrimSpace(mustRead(t, cont, "/sys/fs/cgroup/cpuacct/cpuacct.usage"))
	if got == "0" {
		t.Fatal("cpuacct.usage should be nonzero for a busy container")
	}
	// An idle sibling container reads its own (zero) usage.
	other := NewMount(fs, containerView(k, "c2", "/docker/c2"), Policy{})
	if got := strings.TrimSpace(mustRead(t, other, "/sys/fs/cgroup/cpuacct/cpuacct.usage")); got != "0" {
		t.Fatalf("idle container cpuacct = %s, want 0", got)
	}
}

func TestCoretempReflectsThermals(t *testing.T) {
	k, fs := newHost(16)
	m := NewMount(fs, HostView(k), Policy{})
	before := mustRead(t, m, "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp2_input")
	k.Spawn("hot", k.InitNS(), "/", 8, perfcount.Rates{Instructions: 2.4e10, Cycles: 2.7e10})
	for i := 0; i < 120; i++ {
		k.Tick(float64(i+1), 1)
	}
	after := mustRead(t, m, "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp2_input")
	if before == after {
		t.Fatal("core temperature did not respond to load")
	}
}

func TestSysvipcShmIsProperlyNamespaced(t *testing.T) {
	k, fs := newHost(17)
	host := NewMount(fs, HostView(k), Policy{})
	cont := NewMount(fs, containerView(k, "c1", "/docker/c1"), Policy{})

	h := mustRead(t, host, "/proc/sysvipc/shm")
	c := mustRead(t, cont, "/proc/sysvipc/shm")
	if h == c {
		t.Fatal("sysvipc/shm should be namespaced (host has daemon segments)")
	}
	if !strings.Contains(h, "4194304") { // the 4 MiB daemon segment
		t.Fatalf("host segments missing:\n%s", h)
	}
	// A container-created segment appears only in its own namespace.
	cv := containerView(k, "c2", "/docker/c2")
	cv.NS.CreateShm(0xdead, 512, 1)
	cont2 := NewMount(fs, cv, Policy{})
	c2 := mustRead(t, cont2, "/proc/sysvipc/shm")
	if !strings.Contains(c2, "57005") { // 0xdead decimal
		t.Fatalf("own segment missing:\n%s", c2)
	}
	if h2 := mustRead(t, host, "/proc/sysvipc/shm"); strings.Contains(h2, "57005") {
		t.Fatal("container segment leaked into the host IPC namespace")
	}
}

func TestProcSelfNSIdentifiers(t *testing.T) {
	k, fs := newHost(18)
	host := NewMount(fs, HostView(k), Policy{})
	cont := NewMount(fs, containerView(k, "c1", "/docker/c1"), Policy{})
	for _, name := range []string{"mnt", "uts", "pid", "net", "ipc", "user", "cgroup"} {
		h := mustRead(t, host, "/proc/self/ns/"+name)
		c := mustRead(t, cont, "/proc/self/ns/"+name)
		if h == c {
			t.Errorf("ns/%s identical across contexts", name)
		}
		if !strings.HasPrefix(c, name+":[") {
			t.Errorf("ns/%s malformed: %q", name, c)
		}
	}
}

func TestReplaceSwapsHandlerAndPanicsOnUnknown(t *testing.T) {
	k, fs := newHost(19)
	fs.Replace("/proc/uptime", func(dst []byte, _ View) ([]byte, error) { return append(dst, "patched\n"...), nil })
	m := NewMount(fs, HostView(k), Policy{})
	if got := mustRead(t, m, "/proc/uptime"); got != "patched\n" {
		t.Fatalf("replace ineffective: %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Replace of unknown path should panic")
		}
	}()
	fs.Replace("/no/such/file", nil)
}

func TestMatchWrapper(t *testing.T) {
	if !Match("/proc/**", "/proc/a/b") || Match("/proc/x", "/proc/y") {
		t.Fatal("Match wrapper broken")
	}
}

func TestMountViewAndPaths(t *testing.T) {
	k, fs := newHost(20)
	v := containerView(k, "c", "/c")
	m := NewMount(fs, v, Policy{})
	if m.View().CgroupPath != "/c" {
		t.Fatal("View not preserved")
	}
	if len(m.Paths()) < 100 {
		t.Fatalf("paths = %d, tree too small", len(m.Paths()))
	}
}

func TestFilterWithNilTransformEmpties(t *testing.T) {
	k, fs := newHost(21)
	m := NewMount(fs, HostView(k), Policy{Rules: []Rule{
		{Pattern: "/proc/uptime", Do: Filter}, // nil Transform
	}})
	if got := mustRead(t, m, "/proc/uptime"); got != "" {
		t.Fatalf("nil-transform filter should empty, got %q", got)
	}
}

func TestRawThermalPackageSensorIsMaxOfCores(t *testing.T) {
	k, fs := newHost(22)
	m := NewMount(fs, HostView(k), Policy{})
	// Heat one core via a pinned task and advance.
	task := k.Spawn("hot", k.InitNS(), "/", 1, perfcount.Rates{Instructions: 3e9, Cycles: 3.4e9})
	task.Pinned = []int{4}
	for i := 0; i < 120; i++ {
		k.Tick(float64(i+1), 1)
	}
	pkg := mustRead(t, m, "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp1_input")
	core := mustRead(t, m, "/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp6_input") // core 4
	if pkg != core {
		t.Fatalf("package sensor %q should equal hottest core %q", pkg, core)
	}
}

func TestBeyondRegistryFilesRenderPlausibly(t *testing.T) {
	k, fs := newHost(23)
	d := 4.0
	k.Spawn("w", k.InitNS(), "/", d, perfcount.Rates{Instructions: 1.2e10, Cycles: 1.36e10})
	for i := 0; i < 10; i++ {
		k.Tick(float64(i+1), 1)
	}
	m := NewMount(fs, HostView(k), Policy{})
	vm := mustRead(t, m, "/proc/vmstat")
	if !strings.Contains(vm, "pgfault ") || strings.Contains(vm, "pgfault 0\n") {
		t.Fatalf("vmstat not accumulating:\n%s", vm)
	}
	ds := mustRead(t, m, "/proc/diskstats")
	if !strings.Contains(ds, "sda ") || !strings.Contains(ds, "sda1 ") {
		t.Fatalf("diskstats malformed:\n%s", ds)
	}
	bi := mustRead(t, m, "/proc/buddyinfo")
	if !strings.Contains(bi, "Node 0, zone   Normal") {
		t.Fatalf("buddyinfo malformed:\n%s", bi)
	}
	sn := mustRead(t, m, "/proc/net/softnet_stat")
	if strings.Count(sn, "\n") != k.Options().Cores {
		t.Fatalf("softnet rows = %d", strings.Count(sn, "\n"))
	}
}
