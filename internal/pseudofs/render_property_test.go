package pseudofs

// This file pins the zero-allocation render migration: every registered
// path's append-style handler must produce output byte-identical to the
// pre-migration fmt/strings.Builder handler it replaced. The oracle below
// IS the old implementation — the handler bodies of the string-returning
// buildProc/buildSys, preserved verbatim (fs.add → add) at the commit that
// introduced the append path. If a future edit to a handler drifts by even
// one byte of padding, this test names the path and shows the first
// divergence.
//
// /proc/sys/kernel/random/uuid is excluded by design: it draws from the
// kernel's uuid RNG stream on every read, so two renders are *supposed* to
// differ and there is no stable oracle for it.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/power"
	"repro/internal/workload"
)

// preRenderOracle rebuilds the pre-migration string-rendering handler set
// for fs's kernel and the given hardware profile.
func preRenderOracle(fs *FS, hw Hardware) map[string]func(View) (string, error) {
	k := fs.k
	o := make(map[string]func(View) (string, error))
	add := func(p string, h func(View) (string, error)) { o[p] = h }
	static := func(p, content string) {
		add(p, func(View) (string, error) { return content, nil })
	}

	// --- /proc (old buildProc, verbatim) -------------------------------

	add("/proc/uptime", func(View) (string, error) {
		up, idle := k.Uptime()
		return fmt.Sprintf("%.2f %.2f\n", up, idle), nil
	})
	add("/proc/version", func(View) (string, error) {
		return k.KernelVersion() + "\n", nil
	})
	add("/proc/loadavg", func(View) (string, error) {
		la := k.LoadAvgSnapshot()
		return fmt.Sprintf("%.2f %.2f %.2f %d/%d %d\n",
			la.Load1, la.Load5, la.Load15, la.Runnable, la.Total, la.LastPID), nil
	})
	add("/proc/meminfo", func(View) (string, error) {
		mi := k.MeminfoSnapshot()
		var b strings.Builder
		row := func(name string, kb uint64) {
			fmt.Fprintf(&b, "%-16s%8d kB\n", name+":", kb)
		}
		row("MemTotal", mi.TotalKB)
		row("MemFree", mi.FreeKB)
		row("MemAvailable", mi.AvailableKB)
		row("Buffers", mi.BuffersKB)
		row("Cached", mi.CachedKB)
		row("Active", mi.ActiveKB)
		row("Inactive", mi.InactiveKB)
		row("SwapTotal", mi.SwapTotalKB)
		row("SwapFree", mi.SwapFreeKB)
		row("Dirty", mi.DirtyKB)
		return b.String(), nil
	})
	add("/proc/zoneinfo", func(View) (string, error) {
		var b strings.Builder
		for _, z := range k.ZoneSnapshot() {
			fmt.Fprintf(&b, "Node 0, zone %8s\n", z.Name)
			fmt.Fprintf(&b, "  pages free     %d\n", z.Free)
			fmt.Fprintf(&b, "        min      %d\n", z.Min)
			fmt.Fprintf(&b, "        low      %d\n", z.Low)
			fmt.Fprintf(&b, "        high     %d\n", z.High)
			fmt.Fprintf(&b, "        spanned  %d\n", z.Spanned)
			fmt.Fprintf(&b, "        present  %d\n", z.Present)
			fmt.Fprintf(&b, "        managed  %d\n", z.Managed)
		}
		return b.String(), nil
	})
	add("/proc/stat", func(View) (string, error) {
		s := k.StatSnapshot()
		var b strings.Builder
		var tot [7]float64
		for _, c := range s.PerCPU {
			tot[0] += c.User
			tot[1] += c.Nice
			tot[2] += c.System
			tot[3] += c.Idle
			tot[4] += c.IOWait
			tot[5] += c.IRQ
			tot[6] += c.SoftIRQ
		}
		fmt.Fprintf(&b, "cpu  %d %d %d %d %d %d %d 0 0 0\n",
			int64(tot[0]), int64(tot[1]), int64(tot[2]), int64(tot[3]),
			int64(tot[4]), int64(tot[5]), int64(tot[6]))
		for i, c := range s.PerCPU {
			fmt.Fprintf(&b, "cpu%d %d %d %d %d %d %d %d 0 0 0\n", i,
				int64(c.User), int64(c.Nice), int64(c.System), int64(c.Idle),
				int64(c.IOWait), int64(c.IRQ), int64(c.SoftIRQ))
		}
		fmt.Fprintf(&b, "intr %d\n", s.IntrTotal)
		fmt.Fprintf(&b, "ctxt %d\n", s.CtxtSwitches)
		fmt.Fprintf(&b, "btime %d\n", s.BootTime)
		fmt.Fprintf(&b, "processes %d\n", s.Processes)
		fmt.Fprintf(&b, "procs_running %d\n", s.ProcsRunning)
		fmt.Fprintf(&b, "procs_blocked 0\n")
		return b.String(), nil
	})
	add("/proc/cpuinfo", func(View) (string, error) {
		var b strings.Builder
		for _, c := range k.CPUInfoSnapshot() {
			fmt.Fprintf(&b, "processor\t: %d\n", c.Processor)
			fmt.Fprintf(&b, "vendor_id\t: GenuineIntel\n")
			fmt.Fprintf(&b, "model name\t: %s\n", c.Model)
			fmt.Fprintf(&b, "cpu MHz\t\t: %.3f\n", c.MHz)
			fmt.Fprintf(&b, "cache size\t: %d KB\n", c.CacheKB)
			fmt.Fprintf(&b, "cpu cores\t: %d\n\n", c.Cores)
		}
		return b.String(), nil
	})
	add("/proc/interrupts", func(View) (string, error) {
		var b strings.Builder
		b.WriteString("           ")
		for i := 0; i < k.Options().Cores; i++ {
			fmt.Fprintf(&b, "%12s", fmt.Sprintf("CPU%d", i))
		}
		b.WriteByte('\n')
		for _, irq := range k.Interrupts() {
			fmt.Fprintf(&b, "%4s:", irq.Name)
			for _, v := range irq.PerCPU {
				fmt.Fprintf(&b, "%12d", int64(v))
			}
			fmt.Fprintf(&b, "   %s\n", irq.Desc)
		}
		return b.String(), nil
	})
	add("/proc/softirqs", func(View) (string, error) {
		var b strings.Builder
		b.WriteString("           ")
		for i := 0; i < k.Options().Cores; i++ {
			fmt.Fprintf(&b, "%12s", fmt.Sprintf("CPU%d", i))
		}
		b.WriteByte('\n')
		for _, s := range k.SoftIRQs() {
			fmt.Fprintf(&b, "%8s:", s.Name)
			for _, v := range s.PerCPU {
				fmt.Fprintf(&b, "%12d", int64(v))
			}
			b.WriteByte('\n')
		}
		return b.String(), nil
	})
	add("/proc/schedstat", func(View) (string, error) {
		var b strings.Builder
		b.WriteString("version 15\n")
		fmt.Fprintf(&b, "timestamp %d\n", int64(k.Now()*250))
		for i, c := range k.SchedStatSnapshot() {
			fmt.Fprintf(&b, "cpu%d 0 0 0 0 0 0 %d %d %d\n", i, c.RunNS, c.WaitNS, c.Timeslices)
		}
		return b.String(), nil
	})
	add("/proc/sched_debug", func(View) (string, error) {
		var b strings.Builder
		b.WriteString("Sched Debug Version: v0.11, 4.7.0-repro\n")
		fmt.Fprintf(&b, "ktime : %.6f\n", k.Now()*1000)
		b.WriteString("\nrunnable tasks:\n")
		b.WriteString("            task   PID         tree-key  switches  prio\n")
		b.WriteString("-----------------------------------------------------\n")
		for _, t := range k.Tasks() {
			state := " "
			if t.DemandCores > 0 {
				state = "R"
			}
			fmt.Fprintf(&b, "%s %15s %5d %16.6f %9d   120\n",
				state, t.Name, t.HostPID, k.Now()*100, int64(k.Now()*50))
		}
		return b.String(), nil
	})
	add("/proc/timer_list", func(View) (string, error) {
		var b strings.Builder
		b.WriteString("Timer List Version: v0.8\n")
		fmt.Fprintf(&b, "HRTIMER_MAX_CLOCK_BASES: 4\nnow at %d nsecs\n\n", int64(k.Now()*1e9))
		for i, t := range k.TimerOwners() {
			fmt.Fprintf(&b, " #%d: <0000000000000000>, hrtimer_wakeup, S:01, futex_wait_queue_me, %s/%d\n",
				i, t.Name, t.HostPID)
			fmt.Fprintf(&b, " # expires at %d-%d nsecs [in %d to %d nsecs]\n",
				int64(k.Now()*1e9), int64(k.Now()*1e9)+50000, 1000000, 1050000)
		}
		return b.String(), nil
	})
	add("/proc/locks", func(View) (string, error) {
		var b strings.Builder
		for _, l := range k.FileLocks() {
			fmt.Fprintf(&b, "%d: %s  %s  %s %d 08:01:%d 0 EOF\n",
				l.ID, l.Type, l.Mode, l.RW, l.HostPID, l.Inode)
		}
		return b.String(), nil
	})
	add("/proc/modules", func(View) (string, error) {
		var b strings.Builder
		for _, m := range k.Modules() {
			b.WriteString(m)
			b.WriteString(" - Live 0x0000000000000000\n")
		}
		return b.String(), nil
	})
	add("/proc/sys/fs/dentry-state", func(View) (string, error) {
		v := k.VFSSnapshot()
		return fmt.Sprintf("%d\t%d\t45\t0\t0\t0\n", v.Dentries, v.DentryUnused), nil
	})
	add("/proc/sys/fs/inode-nr", func(View) (string, error) {
		v := k.VFSSnapshot()
		return fmt.Sprintf("%d\t%d\n", v.Inodes, v.InodesFree), nil
	})
	add("/proc/sys/fs/file-nr", func(View) (string, error) {
		v := k.VFSSnapshot()
		return fmt.Sprintf("%d\t0\t%d\n", v.FilesOpen, v.FilesMax), nil
	})
	add("/proc/sys/kernel/random/boot_id", func(View) (string, error) {
		return k.BootID() + "\n", nil
	})
	add("/proc/sys/kernel/random/entropy_avail", func(View) (string, error) {
		return fmt.Sprintf("%d\n", k.EntropyAvail()), nil
	})
	// /proc/sys/kernel/random/uuid: no oracle (volatile by design).
	for i := 0; i < k.Options().Cores; i++ {
		cpu := i
		add(fmt.Sprintf("/proc/sys/kernel/sched_domain/cpu%d/domain0/max_newidle_lb_cost", i),
			func(View) (string, error) {
				return fmt.Sprintf("%d\n", k.NewidleCost(cpu)), nil
			})
	}
	add("/proc/fs/ext4/sda1/mb_groups", func(View) (string, error) {
		var b strings.Builder
		b.WriteString("#group: free  frags first [ 2^0   2^1   2^2   2^3   2^4   2^5   2^6 ]\n")
		for i, g := range k.Ext4GroupSnapshot() {
			fmt.Fprintf(&b, "#%d    : %d  %d  %d  [ %d  %d  %d  %d  %d  %d  %d ]\n",
				i, g.Free, g.Frags, g.First,
				g.Free%7, g.Free%11, g.Free%13, g.Free%17, g.Free%19, g.Free%23, g.Free/64)
		}
		return b.String(), nil
	})
	add("/proc/self/cgroup", func(v View) (string, error) {
		path := v.CgroupPath
		var b strings.Builder
		for i, ctrl := range []string{"perf_event", "net_cls,net_prio", "cpuset", "cpu,cpuacct", "memory"} {
			fmt.Fprintf(&b, "%d:%s:%s\n", 11-i, ctrl, path)
		}
		return b.String(), nil
	})
	add("/proc/sys/kernel/hostname", func(v View) (string, error) {
		ns := v.NS
		if ns == nil {
			ns = k.InitNS()
		}
		return ns.Hostname + "\n", nil
	})
	add("/proc/net/dev", func(v View) (string, error) {
		ns := v.NS
		if ns == nil {
			ns = k.InitNS()
		}
		var b strings.Builder
		b.WriteString("Inter-|   Receive                |  Transmit\n")
		b.WriteString(" face |bytes    packets errs drop|bytes    packets errs drop\n")
		for _, d := range k.NetDevices(ns) {
			fmt.Fprintf(&b, "%6s: %8d %8d    0    0 %8d %8d    0    0\n",
				d.Name, int64(k.Now()*1000), int64(k.Now()*10), int64(k.Now()*800), int64(k.Now()*8))
		}
		return b.String(), nil
	})
	add("/proc/sysvipc/shm", func(v View) (string, error) {
		ns := v.NS
		if ns == nil {
			ns = k.InitNS()
		}
		var b strings.Builder
		b.WriteString("       key      shmid perms                  size  cpid  lpid nattch   uid   gid\n")
		for _, seg := range ns.ShmSegments() {
			fmt.Fprintf(&b, "%10d %10d  1600 %21d %5d %5d      2  1000  1000\n",
				seg.Key, seg.ID, seg.SizeKB*1024, seg.CPid, seg.CPid)
		}
		return b.String(), nil
	})
	for _, nt := range []struct {
		name string
		typ  kernel.NSType
	}{
		{"mnt", 1}, {"uts", 2}, {"pid", 3}, {"net", 4}, {"ipc", 5}, {"user", 6}, {"cgroup", 7},
	} {
		nt := nt
		add("/proc/self/ns/"+nt.name, func(v View) (string, error) {
			ns := v.NS
			if ns == nil {
				ns = k.InitNS()
			}
			return fmt.Sprintf("%s:[%d]\n", nt.name, ns.ID(nt.typ)), nil
		})
	}
	static("/proc/filesystems",
		"nodev\tsysfs\nnodev\tproc\nnodev\ttmpfs\nnodev\tdevtmpfs\n\text4\n\text3\n")
	add("/proc/vmstat", func(View) (string, error) {
		v := k.VMStatSnapshot()
		return fmt.Sprintf("nr_free_pages %d\npgfault %d\npgalloc_normal %d\npgmajfault %d\n",
			v.FreePages, v.PgFaults, v.PgAllocs, v.PgFaults/150), nil
	})
	add("/proc/diskstats", func(View) (string, error) {
		d := k.DiskStatSnapshot()
		return fmt.Sprintf("   8       0 sda %d 120 %d 340 %d 88 %d 410 0 500 750\n   8       1 sda1 %d 118 %d 338 %d 86 %d 402 0 495 740\n",
			d.SectorsRead/8, d.SectorsRead, d.SectorsWritten/10, d.SectorsWritten,
			d.SectorsRead/8-2, d.SectorsRead-16, d.SectorsWritten/10-2, d.SectorsWritten-20), nil
	})
	add("/proc/buddyinfo", func(View) (string, error) {
		var b strings.Builder
		b.WriteString("Node 0, zone   Normal ")
		for _, n := range k.BuddyInfo() {
			fmt.Fprintf(&b, "%7d", n)
		}
		b.WriteByte('\n')
		return b.String(), nil
	})
	add("/proc/net/softnet_stat", func(View) (string, error) {
		var b strings.Builder
		for _, n := range k.SoftnetSnapshot() {
			fmt.Fprintf(&b, "%08x 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000\n", n)
		}
		return b.String(), nil
	})
	static("/proc/partitions",
		"major minor  #blocks  name\n\n   8        0  250059096 sda\n   8        1  248006656 sda1\n   8        2    2052440 sda2\n")
	static("/proc/swaps",
		"Filename\t\t\t\tType\t\tSize\tUsed\tPriority\n/dev/sda2\t\t\t\tpartition\t2052436\t0\t-1\n")

	// --- /sys (old buildSys, verbatim) ---------------------------------

	add("/sys/fs/cgroup/net_prio/net_prio.ifpriomap", func(v View) (string, error) {
		cg, _ := k.LookupCgroup(v.CgroupPath)
		var b strings.Builder
		for _, dev := range k.HostNetDevices() {
			prio := 0
			if cg != nil && cg.IfPrioMap != nil {
				prio = cg.IfPrioMap[dev.Name]
			}
			fmt.Fprintf(&b, "%s %d\n", dev.Name, prio)
		}
		return b.String(), nil
	})
	add("/sys/fs/cgroup/cpuacct/cpuacct.usage", func(v View) (string, error) {
		var usage int64
		if cg, ok := k.LookupCgroup(v.CgroupPath); ok {
			usage = int64(cg.CPUUsageNS)
		}
		return fmt.Sprintf("%d\n", usage), nil
	})
	add("/sys/devices/system/node/node0/numastat", func(View) (string, error) {
		n := k.NUMASnapshot()
		return fmt.Sprintf("numa_hit %d\nnuma_miss %d\nnuma_foreign %d\ninterleave_hit %d\nlocal_node %d\nother_node %d\n",
			int64(n.Hit), int64(n.Miss), int64(n.Foreign), int64(n.InterleaveHit),
			int64(n.LocalNode), int64(n.OtherNode)), nil
	})
	add("/sys/devices/system/node/node0/vmstat", func(View) (string, error) {
		mi := k.MeminfoSnapshot()
		n := k.NUMASnapshot()
		return fmt.Sprintf("nr_free_pages %d\nnr_alloc_batch 63\nnr_inactive_anon %d\nnr_active_anon %d\nnuma_hit %d\nnuma_local %d\n",
			mi.FreeKB/4, mi.InactiveKB/4, mi.ActiveKB/4, int64(n.Hit), int64(n.LocalNode)), nil
	})
	add("/sys/devices/system/node/node0/meminfo", func(View) (string, error) {
		mi := k.MeminfoSnapshot()
		return fmt.Sprintf("Node 0 MemTotal:       %d kB\nNode 0 MemFree:        %d kB\nNode 0 MemUsed:        %d kB\nNode 0 Active:         %d kB\nNode 0 Inactive:       %d kB\n",
			mi.TotalKB, mi.FreeKB, mi.TotalKB-mi.FreeKB, mi.ActiveKB, mi.InactiveKB), nil
	})
	states := k.IdleStateSnapshot()
	for cpu := 0; cpu < k.Options().Cores; cpu++ {
		for si := range states {
			cpu, si := cpu, si
			base := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpuidle/state%d", cpu, si)
			static(base+"/name", states[si].Name+"\n")
			add(base+"/usage", func(View) (string, error) {
				st := k.IdleStateSnapshot()
				return fmt.Sprintf("%d\n", int64(st[si].UsagePerCPU[cpu])), nil
			})
			add(base+"/time", func(View) (string, error) {
				st := k.IdleStateSnapshot()
				return fmt.Sprintf("%d\n", int64(st[si].TimeUSPerCPU[cpu])), nil
			})
		}
	}
	gov := k.Freq()
	for cpu := 0; cpu < k.Options().Cores; cpu++ {
		cpu := cpu
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpufreq", cpu)
		add(base+"/scaling_cur_freq", func(View) (string, error) {
			return fmt.Sprintf("%d\n", k.Freq().CurKHz(cpu)), nil
		})
		add(base+"/stats/total_trans", func(View) (string, error) {
			return fmt.Sprintf("%d\n", k.Freq().Transitions(cpu)), nil
		})
		static(base+"/scaling_governor", gov.Name()+"\n")
		static(base+"/scaling_available_governors", "performance powersave "+gov.Name()+"\n")
		static(base+"/scaling_driver", "acpi-cpufreq\n")
		static(base+"/scaling_min_freq", fmt.Sprintf("%d\n", gov.MinKHz()))
		static(base+"/scaling_max_freq", fmt.Sprintf("%d\n", gov.MaxKHz()))
		static(base+"/cpuinfo_min_freq", fmt.Sprintf("%d\n", gov.MinKHz()))
		static(base+"/cpuinfo_max_freq", fmt.Sprintf("%d\n", gov.MaxKHz()))
	}
	if hw.HasCoretemp {
		add("/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp1_input", func(v View) (string, error) {
			t, err := fs.thermal.CoreTempC(v, -1)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d\n", int64(t*1000)), nil
		})
		for c := 0; c < k.Options().Cores; c++ {
			c := c
			add(fmt.Sprintf("/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp%d_input", c+2),
				func(v View) (string, error) {
					t, err := fs.thermal.CoreTempC(v, c)
					if err != nil {
						return "", err
					}
					return fmt.Sprintf("%d\n", int64(t*1000)), nil
				})
		}
	}
	if hw.HasRAPL {
		domains := []struct {
			dir  string
			name string
			dom  power.Domain
		}{
			{"/sys/class/powercap/intel-rapl:0", "package-0", power.Package},
			{"/sys/class/powercap/intel-rapl:0/intel-rapl:0:0", "core", power.Core},
			{"/sys/class/powercap/intel-rapl:0/intel-rapl:0:1", "dram", power.DRAM},
		}
		for _, d := range domains {
			d := d
			static(d.dir+"/name", d.name+"\n")
			add(d.dir+"/energy_uj", func(v View) (string, error) {
				uj, err := fs.energy.EnergyUJ(v, d.dom)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%d\n", uj), nil
			})
			static(d.dir+"/max_energy_range_uj",
				fmt.Sprintf("%d\n", k.Meter().MaxEnergyRangeUJ()))
		}
	}
	static("/sys/devices/system/cpu/online", fmt.Sprintf("0-%d\n", k.Options().Cores-1))

	return o
}

// populateWorld gives the kernel non-trivial dynamic state so the table
// renderers (locks, timers, sched_debug, shm, net devices) have rows to
// format, then advances time to a non-round instant so the float formats
// exercise real fractional digits.
func populateWorld(k *kernel.Kernel) View {
	cg := "/docker/prop-c1"
	ns := k.NewNSSet("prop-c1", cg)
	k.Cgroup(cg) // materialize like the container runtime does
	k.AddHostNetDev("veth00prop")

	init := k.Spawn("prop-init", ns, cg, 0, workload.IdleLoop.Rates.Times(0))
	w := k.Spawn("prop-worker", ns, cg, 1.5, workload.Prime.Rates)
	w.HasTimer = true
	host := k.Spawn("host-daemon", k.InitNS(), "/", 0.5, workload.IdleLoop.Rates)
	host.HasTimer = true
	k.AddFileLock(init, "WRITE", 7788001)
	k.AddFileLock(host, "READ", 9900113)

	for i := 0; i < 7; i++ {
		k.Tick(float64(i+1)*1.37, 1.37)
	}
	return View{NS: ns, CgroupPath: cg}
}

// TestAppendRenderMatchesPrePRStringHandlers renders every registered path
// through the append fast path and through the Read string path, for both
// the host view and a container view, and requires each to be
// byte-identical to the pre-migration fmt-based oracle.
func TestAppendRenderMatchesPrePRStringHandlers(t *testing.T) {
	hw := DefaultHardware()
	k := kernel.New(kernel.Options{Hostname: "node-prop", Seed: 0x51ea})
	fs := Build(k, hw)
	contView := populateWorld(k)
	oracle := preRenderOracle(fs, hw)

	views := []struct {
		name string
		v    View
	}{
		{"host", HostView(k)},
		{"container", contView},
	}
	checked := 0
	for _, vc := range views {
		m := NewMount(fs, vc.v, Policy{})
		for _, path := range fs.Paths() {
			if path == "/proc/sys/kernel/random/uuid" {
				continue // volatile: draws a fresh value per read
			}
			ref, ok := oracle[path]
			if !ok {
				t.Errorf("%s: registered path has no pre-migration oracle", path)
				continue
			}
			want, werr := ref(vc.v)
			got, gerr := m.AppendRead(nil, path)
			if (werr == nil) != (gerr == nil) {
				t.Errorf("%s [%s]: error mismatch: oracle=%v append=%v", path, vc.name, werr, gerr)
				continue
			}
			if werr != nil {
				continue
			}
			if string(got) != want {
				t.Errorf("%s [%s]: append render diverges from pre-migration render\n got: %q\nwant: %q",
					path, vc.name, firstDiff(string(got), want), firstDiff(want, string(got)))
				continue
			}
			// The string-compat path must agree too (it renders through
			// the same handler via the pooled buffer).
			if s, err := m.Read(path); err != nil || s != want {
				t.Errorf("%s [%s]: Read diverges from AppendRead (err=%v)", path, vc.name, err)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("property covered only %d path×view renders — registration broken?", checked)
	}
}

// firstDiff trims s to a window around the first byte where s and other
// diverge, keeping failure messages readable for multi-KB tables.
func firstDiff(s, other string) string {
	i := 0
	for i < len(s) && i < len(other) && s[i] == other[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hi := i + 80
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
