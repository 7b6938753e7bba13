package kernel

import (
	"math"
	"slices"
	"testing"

	"repro/internal/perfcount"
)

func newTestKernel(seed int64) *Kernel {
	return New(Options{Hostname: "node-a", Seed: seed})
}

// busyTask returns a demand/rate pair resembling one fully-busy core of a
// compute workload.
func busyTask() (float64, perfcount.Rates) {
	return 1, perfcount.Rates{
		Instructions: 3e9, Cycles: 3.4e9,
		CacheMisses: 5e6, CacheRefs: 1e8,
		BranchMisses: 1.5e7, BranchRefs: 6e8,
	}
}

func tick(k *Kernel, seconds int) {
	for i := 0; i < seconds; i++ {
		k.Tick(k.Now()+1, 1)
	}
}

func TestDefaultsApplied(t *testing.T) {
	k := New(Options{})
	o := k.Options()
	if o.Cores != 8 || o.MemTotalKB == 0 || o.KernelVersion == "" || o.CPUModel == "" {
		t.Fatalf("defaults not applied: %+v", o)
	}
}

func TestBootIDUniquePerKernelAndStable(t *testing.T) {
	k1 := newTestKernel(1)
	k2 := newTestKernel(2)
	if k1.BootID() == k2.BootID() {
		t.Fatal("different kernels must have different boot ids")
	}
	id := k1.BootID()
	tick(k1, 10)
	if k1.BootID() != id {
		t.Fatal("boot id must be static across a boot")
	}
	if len(id) != 36 {
		t.Fatalf("boot id %q not UUID-shaped", id)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (float64, uint64, int) {
		k := newTestKernel(42)
		d, r := busyTask()
		k.Spawn("load", k.InitNS(), "/", d, r)
		tick(k, 30)
		up, idle := k.Uptime()
		_ = up
		return idle, k.Meter().EnergyUJ(1), k.EntropyAvail()
	}
	i1, e1, en1 := run()
	i2, e2, en2 := run()
	if i1 != i2 || e1 != e2 || en1 != en2 {
		t.Fatalf("same seed diverged: (%g,%d,%d) vs (%g,%d,%d)", i1, e1, en1, i2, e2, en2)
	}
}

func TestUptimeAndIdleAccumulate(t *testing.T) {
	k := newTestKernel(3)
	up0, idle0 := k.Uptime()
	if up0 <= 0 || idle0 <= 0 {
		t.Fatalf("fresh kernel should carry pre-simulation age: up=%g idle=%g", up0, idle0)
	}
	tick(k, 100)
	up, idle := k.Uptime()
	if math.Abs(up-up0-100) > 1e-9 {
		t.Fatalf("uptime advanced %g, want 100", up-up0)
	}
	// Fully idle host: idle core-seconds gain ≈ cores × time.
	want := float64(k.Options().Cores) * 100
	if math.Abs(idle-idle0-want) > 1 {
		t.Fatalf("idle gain = %g, want ≈ %g", idle-idle0, want)
	}
	d, r := busyTask()
	k.Spawn("load", k.InitNS(), "/", 4*d, r.Times(4))
	tick(k, 100)
	_, idle2 := k.Uptime()
	gained := idle2 - idle
	wantGain := float64(k.Options().Cores-4) * 100
	if math.Abs(gained-wantGain) > 5 {
		t.Fatalf("idle gain with 4 busy cores = %g, want ≈ %g", gained, wantGain)
	}
}

func TestSchedulerOversubscriptionScales(t *testing.T) {
	k := New(Options{Cores: 4, Seed: 9})
	d, r := busyTask()
	// Demand 8 cores on a 4-core host → every task runs at half speed.
	t1 := k.Spawn("a", k.InitNS(), "/a", 4*d, r.Times(4))
	t2 := k.Spawn("b", k.InitNS(), "/b", 4*d, r.Times(4))
	_ = t1
	_ = t2
	tick(k, 10)
	a := k.Cgroup("/a").CPUUsageNS
	b := k.Cgroup("/b").CPUUsageNS
	// Each should have received ~2 cores × 10 s = 20e9 ns.
	if math.Abs(a-20e9) > 2e9 || math.Abs(b-20e9) > 2e9 {
		t.Fatalf("cpuacct a=%g b=%g, want ≈ 20e9 each", a, b)
	}
}

func TestPerfAccountingPerCgroup(t *testing.T) {
	k := newTestKernel(4)
	k.Perf().CreateGroup("/c1")
	d, r := busyTask()
	k.Spawn("w", k.InitNS(), "/c1", d, r)
	tick(k, 10)
	c, ok := k.Perf().Read("/c1")
	if !ok {
		t.Fatal("perf group missing")
	}
	if math.Abs(c.Instructions-3e10) > 1e9 {
		t.Fatalf("instructions = %g, want ≈ 3e10", c.Instructions)
	}
}

func TestNamespaceIDsDistinct(t *testing.T) {
	k := newTestKernel(5)
	ns := k.NewNSSet("cont-1", "/docker/c1")
	for typ := NSType(1); typ <= nsTypeCount; typ++ {
		if ns.ID(typ) == k.InitNS().ID(typ) {
			t.Fatalf("%v namespace shared with init", typ)
		}
		if ns.ID(typ) == 0 {
			t.Fatalf("%v namespace id is zero", typ)
		}
	}
	if ns.IsInit() || !k.InitNS().IsInit() {
		t.Fatal("IsInit misreports")
	}
}

func TestNSTypeString(t *testing.T) {
	names := map[NSType]string{MNT: "mnt", UTS: "uts", PID: "pid", NET: "net", IPC: "ipc", USER: "user", CGROUP: "cgroup"}
	for typ, want := range names {
		if typ.String() != want {
			t.Fatalf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
	if NSType(42).String() == "" {
		t.Fatal("unknown NSType should still format")
	}
}

func TestPIDNamespaceTranslation(t *testing.T) {
	k := newTestKernel(6)
	ns := k.NewNSSet("cont-1", "/docker/c1")
	d, r := busyTask()
	host := k.Spawn("host-proc", k.InitNS(), "/", d, r)
	t1 := k.Spawn("c1-init", ns, "/docker/c1", d, r)
	t2 := k.Spawn("c1-worker", ns, "/docker/c1", d, r)

	if t1.NSPID != 1 || t2.NSPID != 2 {
		t.Fatalf("ns pids = %d,%d want 1,2", t1.NSPID, t2.NSPID)
	}
	if t1.HostPID == t1.NSPID {
		t.Fatal("host pid should differ from ns pid for containers")
	}
	// Host task invisible inside the container's PID ns.
	if _, ok := ns.TranslatePID(host.HostPID); ok {
		t.Fatal("host pid must not be visible in container PID ns")
	}
	// Container tasks visible on host (identity mapping).
	if got, ok := k.InitNS().TranslatePID(t1.HostPID); !ok || got != t1.HostPID {
		t.Fatal("container pid must be visible on host")
	}

	vis := k.TasksInNS(ns)
	if len(vis) != 2 {
		t.Fatalf("TasksInNS = %d tasks, want 2", len(vis))
	}
	all := k.Tasks()
	if len(all) != 3 {
		t.Fatalf("Tasks = %d, want 3 (global view)", len(all))
	}
}

func TestExitReleasesPIDAndLocks(t *testing.T) {
	k := newTestKernel(7)
	ns := k.NewNSSet("c", "/c")
	d, r := busyTask()
	task := k.Spawn("w", ns, "/c", d, r)
	k.AddFileLock(task, "WRITE", 777)
	if len(k.FileLocks()) != 1 {
		t.Fatal("lock not registered")
	}
	k.Exit(task.HostPID)
	if k.Task(task.HostPID) != nil {
		t.Fatal("task still present after exit")
	}
	if _, ok := ns.TranslatePID(task.HostPID); ok {
		t.Fatal("pid mapping not released")
	}
	if len(k.FileLocks()) != 0 {
		t.Fatal("locks not released on exit")
	}
	k.Exit(999999) // unknown pid must be a no-op
}

func TestSpawnPanicsOnNilNS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := newTestKernel(8)
	d, r := busyTask()
	k.Spawn("bad", nil, "/", d, r)
}

func TestFileLockGlobalVisibility(t *testing.T) {
	k := newTestKernel(9)
	ns1 := k.NewNSSet("c1", "/c1")
	ns2 := k.NewNSSet("c2", "/c2")
	d, r := busyTask()
	t1 := k.Spawn("w1", ns1, "/c1", d, r)
	k.Spawn("w2", ns2, "/c2", d, r)
	lock := k.AddFileLock(t1, "WRITE", 424242)
	// The global table (what /proc/locks renders) shows c1's lock to c2.
	found := false
	for _, l := range k.FileLocks() {
		if l.Inode == 424242 && l.ID == lock.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("implanted lock not globally visible")
	}
}

func TestTimerOwnersGlobal(t *testing.T) {
	k := newTestKernel(10)
	ns := k.NewNSSet("c1", "/c1")
	d, r := busyTask()
	task := k.Spawn("sig-xyzzy", ns, "/c1", d, r)
	task.HasTimer = true
	owners := k.TimerOwners()
	if len(owners) != 1 || owners[0].Name != "sig-xyzzy" {
		t.Fatalf("timer owners = %v", owners)
	}
}

func TestMeminfoRespondsToRSS(t *testing.T) {
	k := newTestKernel(11)
	before := k.MeminfoSnapshot()
	d, r := busyTask()
	task := k.Spawn("hog", k.InitNS(), "/", d, r)
	task.RSSKB = 4 * 1024 * 1024 // 4 GiB
	after := k.MeminfoSnapshot()
	if before.FreeKB-after.FreeKB < 3*1024*1024 {
		t.Fatalf("free memory did not drop with RSS: %d -> %d", before.FreeKB, after.FreeKB)
	}
	if after.TotalKB != k.Options().MemTotalKB {
		t.Fatal("total must be stable")
	}
}

// TestSystemLockWindow checks the tick's lock churn keeps exactly the
// newest sysLockWindow daemon locks, oldest first, through a wrap of the
// ring and a Snapshot/Restore.
func TestSystemLockWindow(t *testing.T) {
	k := newTestKernel(13)
	check := func() {
		t.Helper()
		got := k.SystemLocks()
		n := min(int(k.sysLockSeq), sysLockWindow)
		if len(got) != n {
			t.Fatalf("after %d locks: %d live, want %d", k.sysLockSeq, len(got), n)
		}
		for j, l := range got {
			s := int(k.sysLockSeq) - n + 1 + j
			if l.ID != -s || l.HostPID != 100+s%50 {
				t.Fatalf("after %d locks: entry %d is lock %d (pid %d), want lock %d", k.sysLockSeq, j, -l.ID, l.HostPID, s)
			}
		}
	}
	for k.sysLockSeq < 3*sysLockWindow {
		tick(k, 1)
		check()
	}
	snap, want := k.Snapshot(), k.SystemLocks()
	for seq := k.sysLockSeq; k.sysLockSeq < seq+2; {
		tick(k, 1)
	}
	k.Restore(snap)
	check()
	if got := k.SystemLocks(); !slices.Equal(got, want) {
		t.Errorf("restored window %v, want %v", got, want)
	}
}

func TestZoneSnapshotConsistent(t *testing.T) {
	k := newTestKernel(12)
	zones := k.ZoneSnapshot()
	if len(zones) != 3 {
		t.Fatalf("zones = %d, want 3", len(zones))
	}
	var span uint64
	for _, z := range zones {
		if z.Free > z.Spanned || z.Managed > z.Spanned {
			t.Fatalf("zone %s inconsistent: %+v", z.Name, z)
		}
		span += z.Spanned
	}
	if span > k.Options().MemTotalKB/4 {
		t.Fatal("zones span more pages than physical memory")
	}
}

func TestLoadAvgTracksDemand(t *testing.T) {
	k := newTestKernel(13)
	d, r := busyTask()
	k.Spawn("l1", k.InitNS(), "/", 2*d, r)
	tick(k, 300)
	la := k.LoadAvgSnapshot()
	if math.Abs(la.Load1-2) > 0.2 {
		t.Fatalf("load1 = %g after 5 busy minutes, want ≈ 2", la.Load1)
	}
	if la.Load5 <= la.Load15 {
		t.Fatalf("load5 (%g) should lead load15 (%g) while ramping", la.Load5, la.Load15)
	}
	if la.Runnable != 1 {
		t.Fatalf("runnable = %d", la.Runnable)
	}
}

func TestStatCountersMonotone(t *testing.T) {
	k := newTestKernel(14)
	d, r := busyTask()
	k.Spawn("w", k.InitNS(), "/", d, r)
	tick(k, 5)
	s1 := k.StatSnapshot()
	tick(k, 5)
	s2 := k.StatSnapshot()
	if s2.IntrTotal <= s1.IntrTotal {
		t.Fatal("interrupt total must grow")
	}
	if s2.CtxtSwitches <= s1.CtxtSwitches {
		t.Fatal("context switches must grow")
	}
	if s2.BootTime != s1.BootTime {
		t.Fatal("btime must be constant")
	}
	var idle1, idle2 float64
	for i := range s1.PerCPU {
		idle1 += s1.PerCPU[i].Idle
		idle2 += s2.PerCPU[i].Idle
	}
	if idle2 <= idle1 {
		t.Fatal("idle ticks must accumulate on a mostly-idle host")
	}
}

func TestInterruptsScaleWithLoad(t *testing.T) {
	idleK := newTestKernel(15)
	tick(idleK, 60)
	busyK := newTestKernel(15)
	d, r := busyTask()
	busyK.Spawn("w", busyK.InitNS(), "/", 8*d, r.Times(8))
	tick(busyK, 60)

	sum := func(k *Kernel, name string) float64 {
		for _, irq := range k.Interrupts() {
			if irq.Name == name {
				var s float64
				for _, v := range irq.PerCPU {
					s += v
				}
				return s
			}
		}
		t.Fatalf("irq %s missing", name)
		return 0
	}
	if sum(busyK, "RES") < 2*sum(idleK, "RES") {
		t.Fatal("rescheduling IPIs should scale strongly with load")
	}
}

func TestIdleStatesAccumulateOnlyWhenIdle(t *testing.T) {
	k := newTestKernel(16)
	d, r := busyTask()
	k.Spawn("w", k.InitNS(), "/", 8*d, r.Times(8)) // fully busy
	tick(k, 30)
	st := k.IdleStateSnapshot()
	var total float64
	for _, s := range st {
		for _, v := range s.TimeUSPerCPU {
			total += v
		}
	}
	if total > 1e5 { // essentially zero residency while saturated
		t.Fatalf("busy host accumulated %g us of idle residency", total)
	}
}

func TestEntropyPoolBounded(t *testing.T) {
	k := newTestKernel(17)
	for i := 0; i < 2000; i++ {
		k.Tick(k.Now()+1, 1)
		e := k.EntropyAvail()
		if e < 180 || e > 4096 {
			t.Fatalf("entropy %d out of bounds", e)
		}
	}
}

func TestVFSCountersPositive(t *testing.T) {
	k := newTestKernel(18)
	tick(k, 10)
	v := k.VFSSnapshot()
	if v.Dentries == 0 || v.Inodes == 0 || v.FilesOpen == 0 || v.FilesMax == 0 {
		t.Fatalf("vfs counters zero: %+v", v)
	}
}

func TestNewidleCostWalksWithinBounds(t *testing.T) {
	k := newTestKernel(19)
	costs := func() []uint64 {
		out := make([]uint64, k.Options().Cores)
		for cpu := range out {
			out[cpu] = k.NewidleCost(cpu)
		}
		return out
	}
	before := costs()
	tick(k, 50)
	after := costs()
	changed := false
	for i := range after {
		if after[i] != before[i] {
			changed = true
		}
		if after[i] < 5000 || after[i] > 120000 {
			t.Fatalf("newidle cost %d out of bounds", after[i])
		}
	}
	if !changed {
		t.Fatal("newidle costs never changed")
	}
}

func TestNetDeviceViews(t *testing.T) {
	k := newTestKernel(20)
	ns := k.NewNSSet("c1", "/c1")
	host := k.NetDevices(k.InitNS())
	cont := k.NetDevices(ns)
	leaked := k.HostNetDevices()
	if len(cont) != 2 {
		t.Fatalf("container devices = %v", cont)
	}
	if len(host) != 4 || len(leaked) != 4 {
		t.Fatalf("host devices = %v leaked = %v", host, leaked)
	}
	// The buggy accessor returns host devices regardless of caller ns —
	// that inequality IS the net_prio.ifpriomap leak.
	if len(leaked) == len(cont) {
		t.Fatal("leaked view should exceed the namespaced view")
	}
}

func TestUUIDsDiffer(t *testing.T) {
	k := newTestKernel(21)
	if k.GenUUID() == k.GenUUID() {
		t.Fatal("successive uuids must differ")
	}
}

func TestCgroupLifecycle(t *testing.T) {
	k := newTestKernel(22)
	cg := k.Cgroup("/docker/x")
	cg.IfPrioMap = map[string]int{"eth0": 3}
	if got := k.Cgroup("/docker/x"); got != cg {
		t.Fatal("Cgroup must return the same instance")
	}
	paths := k.Cgroups()
	if len(paths) != 2 { // "/" and "/docker/x"
		t.Fatalf("cgroups = %v", paths)
	}
	k.RemoveCgroup("/docker/x")
	if len(k.Cgroups()) != 1 {
		t.Fatal("cgroup not removed")
	}
	k.RemoveCgroup("/") // must be refused
	if len(k.Cgroups()) != 1 {
		t.Fatal("root cgroup must not be removable")
	}
}

func TestPinnedTaskHeatsItsCore(t *testing.T) {
	k := New(Options{Cores: 8, Seed: 23})
	d, r := busyTask()
	task := k.Spawn("hot", k.InitNS(), "/", d, r)
	task.Pinned = []int{2}
	tick(k, 180)
	hot := k.Meter().CoreTempC(2)
	cold := k.Meter().CoreTempC(5)
	if hot <= cold+1 {
		t.Fatalf("pinned core temp %g not above idle core %g", hot, cold)
	}
}

func TestCPUInfoStaticAndUniform(t *testing.T) {
	k1 := newTestKernel(24)
	k2 := newTestKernel(25)
	a, b := k1.CPUInfoSnapshot(), k2.CPUInfoSnapshot()
	if len(a) != k1.Options().Cores {
		t.Fatalf("cpuinfo rows = %d", len(a))
	}
	if a[0].Model != b[0].Model || a[0].MHz != b[0].MHz {
		t.Fatal("cpuinfo must be fleet-wide identical (U=false channel)")
	}
}

func TestModulesAndVersionFleetIdentical(t *testing.T) {
	k1, k2 := newTestKernel(26), newTestKernel(27)
	if k1.KernelVersion() != k2.KernelVersion() {
		t.Fatal("kernel version should be fleet-wide identical")
	}
	m1, m2 := k1.Modules(), k2.Modules()
	if len(m1) == 0 || len(m1) != len(m2) {
		t.Fatal("module lists differ")
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("module lists differ")
		}
	}
}

func TestSchedStatAccumulatesWithLoad(t *testing.T) {
	k := newTestKernel(28)
	d, r := busyTask()
	k.Spawn("w", k.InitNS(), "/", 8*d, r.Times(8))
	tick(k, 10)
	ss := k.SchedStatSnapshot()
	var run uint64
	for _, c := range ss {
		run += c.RunNS
	}
	// 8 cores × 10 s ≈ 8e10 ns of run time.
	if run < 5e10 {
		t.Fatalf("run ns = %d, want ≥ 5e10", run)
	}
}

func TestNUMAAccumulates(t *testing.T) {
	k := newTestKernel(29)
	d, r := busyTask()
	k.Spawn("w", k.InitNS(), "/", d, r)
	tick(k, 10)
	n := k.NUMASnapshot()
	if n.Hit <= 0 || n.LocalNode != n.Hit {
		t.Fatalf("numa stats %+v", n)
	}
}

func TestTaskString(t *testing.T) {
	k := newTestKernel(30)
	d, r := busyTask()
	task := k.Spawn("w", k.InitNS(), "/", d, r)
	if task.String() == "" {
		t.Fatal("String empty")
	}
}

func TestVMAndDiskCountersAccumulate(t *testing.T) {
	k := newTestKernel(31)
	d, r := busyTask()
	k.Spawn("w", k.InitNS(), "/", 4*d, r.Times(4))
	tick(k, 10)
	vm1, dk1 := k.VMStatSnapshot(), k.DiskStatSnapshot()
	tick(k, 10)
	vm2, dk2 := k.VMStatSnapshot(), k.DiskStatSnapshot()
	if vm2.PgFaults <= vm1.PgFaults || vm2.PgAllocs <= vm1.PgAllocs {
		t.Fatalf("vmstat counters stalled: %+v -> %+v", vm1, vm2)
	}
	if dk2.SectorsRead <= dk1.SectorsRead || dk2.SectorsWritten <= dk1.SectorsWritten {
		t.Fatalf("diskstats stalled: %+v -> %+v", dk1, dk2)
	}
}

func TestSoftnetPerCPUAccumulates(t *testing.T) {
	k := newTestKernel(32)
	tick(k, 20)
	sn := k.SoftnetSnapshot()
	if len(sn) != k.Options().Cores {
		t.Fatalf("softnet rows = %d", len(sn))
	}
	for i, v := range sn {
		if v == 0 {
			t.Fatalf("cpu %d softnet counter zero", i)
		}
	}
}

func TestBuddyInfoConservesFreePages(t *testing.T) {
	k := newTestKernel(33)
	tick(k, 5)
	free := k.MeminfoSnapshot().FreeKB / 4
	var sum uint64
	for order, n := range k.BuddyInfo() {
		sum += n << uint(order)
	}
	if sum != free {
		t.Fatalf("buddy blocks cover %d pages, free pool is %d", sum, free)
	}
}

// TestIdleAccessorsMatchSnapshot: the per-cell cpuidle accessors read
// exactly what the full table copy holds, without allocating.
func TestIdleAccessorsMatchSnapshot(t *testing.T) {
	k := newTestKernel(8)
	tick(k, 30)
	st := k.IdleStateSnapshot()
	for si, s := range st {
		for cpu := range s.UsagePerCPU {
			if got := k.IdleUsage(si, cpu); got != s.UsagePerCPU[cpu] {
				t.Fatalf("IdleUsage(%d, %d) = %g; snapshot %g", si, cpu, got, s.UsagePerCPU[cpu])
			}
			if got := k.IdleTimeUS(si, cpu); got != s.TimeUSPerCPU[cpu] {
				t.Fatalf("IdleTimeUS(%d, %d) = %g; snapshot %g", si, cpu, got, s.TimeUSPerCPU[cpu])
			}
		}
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += k.IdleUsage(1, 3) + k.IdleTimeUS(1, 3) }); n != 0 {
		t.Fatalf("idle accessors allocate %g times per call", n)
	}
	_ = sink
}
