package pseudofs

import (
	"fmt"

	"repro/internal/kernel"
)

// proc lays out the /proc tree of a host with the given core count.
// Files registered with add have a global render, which takes no View and
// reads kernel-wide state with no namespace check: those are the leakage
// channels. Files registered with addView consult the reader's View and
// model correctly containerized files.
//
// Renders append into the caller's buffer (see render and render.go);
// every formatting helper reproduces the historical fmt verb bit for bit,
// which the render-property test asserts per registered path.
func (l *layout) proc(cores int) {

	// --- Table I channels ----------------------------------------------

	// /proc/uptime: host uptime and aggregate idle time, regardless of
	// when the container started.
	l.add("/proc/uptime", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		up, idle := fs.k.Uptime()
		b = apFloat(b, up, 2)
		b = append(b, ' ')
		b = apFloat(b, idle, 2)
		return append(b, '\n'), nil
	})

	// /proc/version: host kernel build string.
	l.add("/proc/version", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, fs.k.KernelVersion()...)
		return append(b, '\n'), nil
	})

	// /proc/loadavg: host-wide run queue.
	l.add("/proc/loadavg", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		la := fs.k.LoadAvgSnapshot()
		b = apFloat(b, la.Load1, 2)
		b = append(b, ' ')
		b = apFloat(b, la.Load5, 2)
		b = append(b, ' ')
		b = apFloat(b, la.Load15, 2)
		b = append(b, ' ')
		b = apInt(b, int64(la.Runnable))
		b = append(b, '/')
		b = apInt(b, int64(la.Total))
		b = append(b, ' ')
		b = apInt(b, int64(la.LastPID))
		return append(b, '\n'), nil
	})

	// /proc/meminfo: physical host memory, not the cgroup limit.
	l.add("/proc/meminfo", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		mi := fs.k.MeminfoSnapshot()
		row := func(b []byte, name string, kb uint64) []byte {
			b = append(b, name...)
			b = append(b, ':')
			b = apSpaces(b, 16-len(name)-1) // %-16s over name+":"
			b = apPadUint(b, 8, kb)
			return append(b, " kB\n"...)
		}
		b = row(b, "MemTotal", mi.TotalKB)
		b = row(b, "MemFree", mi.FreeKB)
		b = row(b, "MemAvailable", mi.AvailableKB)
		b = row(b, "Buffers", mi.BuffersKB)
		b = row(b, "Cached", mi.CachedKB)
		b = row(b, "Active", mi.ActiveKB)
		b = row(b, "Inactive", mi.InactiveKB)
		b = row(b, "SwapTotal", mi.SwapTotalKB)
		b = row(b, "SwapFree", mi.SwapFreeKB)
		b = row(b, "Dirty", mi.DirtyKB)
		return b, nil
	})

	// /proc/zoneinfo: physical RAM zone watermarks.
	l.add("/proc/zoneinfo", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		zrow := func(b []byte, label string, v uint64) []byte {
			b = append(b, label...)
			b = apUint(b, v)
			return append(b, '\n')
		}
		for _, z := range fs.k.ZoneSnapshot() {
			b = append(b, "Node 0, zone "...)
			b = apPadStr(b, 8, z.Name)
			b = append(b, '\n')
			b = zrow(b, "  pages free     ", z.Free)
			b = zrow(b, "        min      ", z.Min)
			b = zrow(b, "        low      ", z.Low)
			b = zrow(b, "        high     ", z.High)
			b = zrow(b, "        spanned  ", z.Spanned)
			b = zrow(b, "        present  ", z.Present)
			b = zrow(b, "        managed  ", z.Managed)
		}
		return b, nil
	})

	// /proc/stat: kernel activity since boot.
	l.add("/proc/stat", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		s := fs.k.StatSnapshot()
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
		b = append(b, "cpu  "...)
		for i, v := range tot {
			if i > 0 {
				b = append(b, ' ')
			}
			b = apInt(b, int64(v))
		}
		b = append(b, " 0 0 0\n"...)
		for i, c := range s.PerCPU {
			b = append(b, "cpu"...)
			b = apInt(b, int64(i))
			b = append(b, ' ')
			b = apInt(b, int64(c.User))
			b = append(b, ' ')
			b = apInt(b, int64(c.Nice))
			b = append(b, ' ')
			b = apInt(b, int64(c.System))
			b = append(b, ' ')
			b = apInt(b, int64(c.Idle))
			b = append(b, ' ')
			b = apInt(b, int64(c.IOWait))
			b = append(b, ' ')
			b = apInt(b, int64(c.IRQ))
			b = append(b, ' ')
			b = apInt(b, int64(c.SoftIRQ))
			b = append(b, " 0 0 0\n"...)
		}
		b = append(b, "intr "...)
		b = apUint(b, s.IntrTotal)
		b = append(b, "\nctxt "...)
		b = apUint(b, s.CtxtSwitches)
		b = append(b, "\nbtime "...)
		b = apInt(b, s.BootTime)
		b = append(b, "\nprocesses "...)
		b = apUint(b, s.Processes)
		b = append(b, "\nprocs_running "...)
		b = apInt(b, int64(s.ProcsRunning))
		b = append(b, "\nprocs_blocked 0\n"...)
		return b, nil
	})

	// /proc/cpuinfo: physical CPU description.
	l.add("/proc/cpuinfo", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		for _, c := range fs.k.CPUInfoSnapshot() {
			b = append(b, "processor\t: "...)
			b = apInt(b, int64(c.Processor))
			b = append(b, "\nvendor_id\t: GenuineIntel\nmodel name\t: "...)
			b = append(b, c.Model...)
			b = append(b, "\ncpu MHz\t\t: "...)
			b = apFloat(b, c.MHz, 3)
			b = append(b, "\ncache size\t: "...)
			b = apInt(b, int64(c.CacheKB))
			b = append(b, " KB\ncpu cores\t: "...)
			b = apInt(b, int64(c.Cores))
			b = append(b, "\n\n"...)
		}
		return b, nil
	})

	// /proc/interrupts: per-IRQ counters for the whole host.
	l.add("/proc/interrupts", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, "           "...)
		for i := 0; i < fs.k.Options().Cores; i++ {
			b = apCPULabel(b, 12, i)
		}
		b = append(b, '\n')
		for _, irq := range fs.k.Interrupts() {
			b = apPadStr(b, 4, irq.Name)
			b = append(b, ':')
			for _, v := range irq.PerCPU {
				b = apPadInt(b, 12, int64(v))
			}
			b = append(b, "   "...)
			b = append(b, irq.Desc...)
			b = append(b, '\n')
		}
		return b, nil
	})

	// /proc/softirqs: softirq handler invocation counts.
	l.add("/proc/softirqs", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, "           "...)
		for i := 0; i < fs.k.Options().Cores; i++ {
			b = apCPULabel(b, 12, i)
		}
		b = append(b, '\n')
		for _, s := range fs.k.SoftIRQs() {
			b = apPadStr(b, 8, s.Name)
			b = append(b, ':')
			for _, v := range s.PerCPU {
				b = apPadInt(b, 12, int64(v))
			}
			b = append(b, '\n')
		}
		return b, nil
	})

	// /proc/schedstat: scheduler statistics per cpu.
	l.add("/proc/schedstat", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, "version 15\ntimestamp "...)
		b = apInt(b, int64(fs.k.Now()*250))
		b = append(b, '\n')
		for i, c := range fs.k.SchedStatSnapshot() {
			b = append(b, "cpu"...)
			b = apInt(b, int64(i))
			b = append(b, " 0 0 0 0 0 0 "...)
			b = apUint(b, c.RunNS)
			b = append(b, ' ')
			b = apUint(b, c.WaitNS)
			b = append(b, ' ')
			b = apUint(b, c.Timeslices)
			b = append(b, '\n')
		}
		return b, nil
	})

	// /proc/sched_debug: dumps EVERY task on the host with its name — the
	// paper's favourite signature-implant channel.
	l.add("/proc/sched_debug", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, "Sched Debug Version: v0.11, 4.7.0-repro\nktime : "...)
		b = apFloat(b, fs.k.Now()*1000, 6)
		b = append(b, "\n\nrunnable tasks:\n"...)
		b = append(b, "            task   PID         tree-key  switches  prio\n"...)
		b = append(b, "-----------------------------------------------------\n"...)
		for _, t := range fs.k.Tasks() {
			if t.DemandCores > 0 {
				b = append(b, 'R')
			} else {
				b = append(b, ' ')
			}
			b = append(b, ' ')
			b = apPadStr(b, 15, t.Name)
			b = append(b, ' ')
			b = apPadInt(b, 5, int64(t.HostPID))
			b = append(b, ' ')
			b = apPadFloat(b, 16, 6, fs.k.Now()*100)
			b = append(b, ' ')
			b = apPadInt(b, 9, int64(fs.k.Now()*50))
			b = append(b, "   120\n"...)
		}
		return b, nil
	})

	// /proc/timer_list: armed timers with their owning task names.
	l.add("/proc/timer_list", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, "Timer List Version: v0.8\nHRTIMER_MAX_CLOCK_BASES: 4\nnow at "...)
		b = apInt(b, int64(fs.k.Now()*1e9))
		b = append(b, " nsecs\n\n"...)
		for i, t := range fs.k.TimerOwners() {
			b = append(b, " #"...)
			b = apInt(b, int64(i))
			b = append(b, ": <0000000000000000>, hrtimer_wakeup, S:01, futex_wait_queue_me, "...)
			b = append(b, t.Name...)
			b = append(b, '/')
			b = apInt(b, int64(t.HostPID))
			b = append(b, "\n # expires at "...)
			b = apInt(b, int64(fs.k.Now()*1e9))
			b = append(b, '-')
			b = apInt(b, int64(fs.k.Now()*1e9)+50000)
			b = append(b, " nsecs [in 1000000 to 1050000 nsecs]\n"...)
		}
		return b, nil
	})

	// /proc/locks: the global file-lock table.
	l.add("/proc/locks", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		for _, l := range fs.k.FileLocks() {
			b = apInt(b, int64(l.ID))
			b = append(b, ": "...)
			b = append(b, l.Type...)
			b = append(b, "  "...)
			b = append(b, l.Mode...)
			b = append(b, "  "...)
			b = append(b, l.RW...)
			b = append(b, ' ')
			b = apInt(b, int64(l.HostPID))
			b = append(b, " 08:01:"...)
			b = apUint(b, l.Inode)
			b = append(b, " 0 EOF\n"...)
		}
		return b, nil
	})

	// /proc/modules: loaded kernel modules.
	l.add("/proc/modules", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		for _, m := range fs.k.Modules() {
			b = append(b, m...)
			b = append(b, " - Live 0x0000000000000000\n"...)
		}
		return b, nil
	})

	// /proc/sys/fs/*: VFS object counts.
	l.add("/proc/sys/fs/dentry-state", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		v := fs.k.VFSSnapshot()
		b = apUint(b, v.Dentries)
		b = append(b, '\t')
		b = apUint(b, v.DentryUnused)
		b = append(b, "\t45\t0\t0\t0\n"...)
		return b, nil
	})
	l.add("/proc/sys/fs/inode-nr", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		v := fs.k.VFSSnapshot()
		b = apUint(b, v.Inodes)
		b = append(b, '\t')
		b = apUint(b, v.InodesFree)
		return append(b, '\n'), nil
	})
	l.add("/proc/sys/fs/file-nr", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		v := fs.k.VFSSnapshot()
		b = apUint(b, v.FilesOpen)
		b = append(b, "\t0\t"...)
		b = apUint(b, v.FilesMax)
		return append(b, '\n'), nil
	})

	// /proc/sys/kernel/random/*.
	l.add("/proc/sys/kernel/random/boot_id", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, fs.k.BootID()...)
		return append(b, '\n'), nil
	})
	l.add("/proc/sys/kernel/random/entropy_avail", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = apInt(b, int64(fs.k.EntropyAvail()))
		return append(b, '\n'), nil
	})
	l.add("/proc/sys/kernel/random/uuid", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, fs.k.GenUUID()...)
		return append(b, '\n'), nil
	})

	// /proc/sys/kernel/sched_domain/cpu#/domain0/max_newidle_lb_cost.
	for cpu := 0; cpu < cores; cpu++ {
		l.add(fmt.Sprintf("/proc/sys/kernel/sched_domain/cpu%d/domain0/max_newidle_lb_cost", cpu), int32(cpu),
			func(fs *FS, cpu int32, b []byte) ([]byte, error) {
				b = apUint(b, fs.k.NewidleCost(int(cpu)))
				return append(b, '\n'), nil
			})
	}

	// /proc/fs/ext4/sda1/mb_groups: allocator state of the host disk.
	l.add("/proc/fs/ext4/sda1/mb_groups", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, "#group: free  frags first [ 2^0   2^1   2^2   2^3   2^4   2^5   2^6 ]\n"...)
		for i, g := range fs.k.Ext4GroupSnapshot() {
			b = append(b, '#')
			b = apInt(b, int64(i))
			b = append(b, "    : "...)
			b = apInt(b, int64(g.Free))
			b = append(b, "  "...)
			b = apInt(b, int64(g.Frags))
			b = append(b, "  "...)
			b = apInt(b, int64(g.First))
			b = append(b, "  [ "...)
			for j, v := range [7]int{g.Free % 7, g.Free % 11, g.Free % 13, g.Free % 17, g.Free % 19, g.Free % 23, g.Free / 64} {
				if j > 0 {
					b = append(b, "  "...)
				}
				b = apInt(b, int64(v))
			}
			b = append(b, " ]\n"...)
		}
		return b, nil
	})

	// --- Namespace-aware files (correct behaviour, for contrast) --------

	// /proc/self/cgroup. The CGROUP namespace exists in kernel 4.7 but the
	// runtimes of the era did not unshare it, so a container sees its full
	// host-side cgroup path (e.g. /docker/<id>) — different from the
	// host's root path, and itself a mild identity leak.
	l.addView("/proc/self/cgroup", 0, func(fs *FS, _ int32, b []byte, v View) ([]byte, error) {
		path := v.CgroupPath
		for i, ctrl := range [...]string{"perf_event", "net_cls,net_prio", "cpuset", "cpu,cpuacct", "memory"} {
			b = apInt(b, int64(11-i))
			b = append(b, ':')
			b = append(b, ctrl...)
			b = append(b, ':')
			b = append(b, path...)
			b = append(b, '\n')
		}
		return b, nil
	})

	// /proc/sys/kernel/hostname respects the UTS namespace.
	l.addView("/proc/sys/kernel/hostname", 0, func(fs *FS, _ int32, b []byte, v View) ([]byte, error) {
		ns := v.NS
		if ns == nil {
			ns = fs.k.InitNS()
		}
		b = append(b, ns.Hostname...)
		return append(b, '\n'), nil
	})

	// /proc/net/dev respects the NET namespace: containers see their veth
	// pair only.
	l.addView("/proc/net/dev", 0, func(fs *FS, _ int32, b []byte, v View) ([]byte, error) {
		ns := v.NS
		if ns == nil {
			ns = fs.k.InitNS()
		}
		b = append(b, "Inter-|   Receive                |  Transmit\n"...)
		b = append(b, " face |bytes    packets errs drop|bytes    packets errs drop\n"...)
		for _, d := range fs.k.NetDevices(ns) {
			b = apPadStr(b, 6, d.Name)
			b = append(b, ": "...)
			b = apPadInt(b, 8, int64(fs.k.Now()*1000))
			b = append(b, ' ')
			b = apPadInt(b, 8, int64(fs.k.Now()*10))
			b = append(b, "    0    0 "...)
			b = apPadInt(b, 8, int64(fs.k.Now()*800))
			b = append(b, ' ')
			b = apPadInt(b, 8, int64(fs.k.Now()*8))
			b = append(b, "    0    0\n"...)
		}
		return b, nil
	})

	// /proc/sysvipc/shm respects the IPC namespace — the positive control
	// showing what a *completed* container adaptation looks like.
	l.addView("/proc/sysvipc/shm", 0, func(fs *FS, _ int32, b []byte, v View) ([]byte, error) {
		ns := v.NS
		if ns == nil {
			ns = fs.k.InitNS()
		}
		b = append(b, "       key      shmid perms                  size  cpid  lpid nattch   uid   gid\n"...)
		for _, seg := range ns.ShmSegments() {
			b = apPadInt(b, 10, int64(seg.Key))
			b = append(b, ' ')
			b = apPadInt(b, 10, int64(seg.ID))
			b = append(b, "  1600 "...)
			b = apPadInt(b, 21, int64(seg.SizeKB)*1024)
			b = append(b, ' ')
			b = apPadInt(b, 5, int64(seg.CPid))
			b = append(b, ' ')
			b = apPadInt(b, 5, int64(seg.CPid))
			b = append(b, "      2  1000  1000\n"...)
		}
		return b, nil
	})

	// /proc/self/ns/*: the namespace identifiers themselves — different
	// per container by construction.
	// The argument is the kernel.NSType.
	for typ := kernel.NSType(1); int(typ) < len(nsNames); typ++ {
		l.addView("/proc/self/ns/"+nsNames[typ], int32(typ), func(fs *FS, typ int32, b []byte, v View) ([]byte, error) {
			ns := v.NS
			if ns == nil {
				ns = fs.k.InitNS()
			}
			b = append(b, nsNames[typ]...)
			b = append(b, ":["...)
			b = apUint(b, ns.ID(kernel.NSType(typ)))
			b = append(b, "]\n"...)
			return b, nil
		})
	}

	// /proc/filesystems: identical everywhere by design (not a leak worth
	// ranking, but the detector must still classify it).
	l.static("/proc/filesystems",
		"nodev\tsysfs\nnodev\tproc\nnodev\ttmpfs\nnodev\tdevtmpfs\n\text4\n\text3\n")

	// --- Channels beyond Table I ---------------------------------------
	// The paper's study was systematic but a snapshot; these additional
	// namespace-oblivious files exist in real kernels too, and the
	// detector discovers them without registry help (leakscan -discover).

	// /proc/vmstat: global VM event counters.
	l.add("/proc/vmstat", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		v := fs.k.VMStatSnapshot()
		b = append(b, "nr_free_pages "...)
		b = apUint(b, v.FreePages)
		b = append(b, "\npgfault "...)
		b = apUint(b, v.PgFaults)
		b = append(b, "\npgalloc_normal "...)
		b = apUint(b, v.PgAllocs)
		b = append(b, "\npgmajfault "...)
		b = apUint(b, v.PgFaults/150)
		return append(b, '\n'), nil
	})

	// /proc/diskstats: host block-device IO counters.
	l.add("/proc/diskstats", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		d := fs.k.DiskStatSnapshot()
		b = append(b, "   8       0 sda "...)
		b = apUint(b, d.SectorsRead/8)
		b = append(b, " 120 "...)
		b = apUint(b, d.SectorsRead)
		b = append(b, " 340 "...)
		b = apUint(b, d.SectorsWritten/10)
		b = append(b, " 88 "...)
		b = apUint(b, d.SectorsWritten)
		b = append(b, " 410 0 500 750\n   8       1 sda1 "...)
		b = apUint(b, d.SectorsRead/8-2)
		b = append(b, " 118 "...)
		b = apUint(b, d.SectorsRead-16)
		b = append(b, " 338 "...)
		b = apUint(b, d.SectorsWritten/10-2)
		b = append(b, " 86 "...)
		b = apUint(b, d.SectorsWritten-20)
		b = append(b, " 402 0 495 740\n"...)
		return b, nil
	})

	// /proc/buddyinfo: physical-memory fragmentation per order.
	l.add("/proc/buddyinfo", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		b = append(b, "Node 0, zone   Normal "...)
		for _, n := range fs.k.BuddyInfo() {
			b = apPadUint(b, 7, n)
		}
		return append(b, '\n'), nil
	})

	// /proc/net/softnet_stat: per-CPU packet processing — global despite
	// living under /proc/net (it is per-CPU, not per-namespace, state).
	l.add("/proc/net/softnet_stat", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		for _, n := range fs.k.SoftnetSnapshot() {
			b = apHex08(b, n)
			b = append(b, " 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000 00000000\n"...)
		}
		return b, nil
	})

	// /proc/partitions and /proc/swaps: fleet-static host disk layout.
	l.static("/proc/partitions",
		"major minor  #blocks  name\n\n   8        0  250059096 sda\n   8        1  248006656 sda1\n   8        2    2052440 sda2\n")
	l.static("/proc/swaps",
		"Filename\t\t\t\tType\t\tSize\tUsed\tPriority\n/dev/sda2\t\t\t\tpartition\t2052436\t0\t-1\n")
}

// nsNames are the /proc/self/ns entry names, indexed by kernel.NSType
// (MNT=1 … CGROUP=7).
var nsNames = [...]string{1: "mnt", 2: "uts", 3: "pid", 4: "net", 5: "ipc", 6: "user", 7: "cgroup"}
