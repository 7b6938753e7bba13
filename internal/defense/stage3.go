package defense

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/pseudofs"
)

// Stage 3 implements what the paper's discussion proposes as future work:
// "It would be better to make system-wide performance statistics
// unavailable to container tenants" (Section VII-A). Instead of masking the
// files — which breaks monitoring agents, JVMs, and sysconf — the handlers
// are replaced with per-cgroup views: the same interfaces, now answering
// from the container's own accounting.
//
// After stage 3, the utilization-proxy attack (attack.RunSynergisticUtil)
// and the utilization covert channel go blind, leaving temperature as the
// only surviving side signal — the resource the paper concedes is genuinely
// hard to partition.

// DefaultMemLimitKB is assumed for containers without an explicit cgroup
// memory limit when rendering the namespaced meminfo (4 GiB).
const DefaultMemLimitKB = 4 * 1024 * 1024

// ApplyStatisticsFixes replaces the host-global performance-statistics
// handlers with per-cgroup implementations.
func ApplyStatisticsFixes(fs *pseudofs.FS) {
	k := fs.Kernel()

	nsOf := func(v pseudofs.View) *kernel.NSSet {
		if v.NS == nil {
			return k.InitNS()
		}
		return v.NS
	}

	// /proc/stat: per-cgroup CPU accounting. The container sees exactly
	// its quota's worth of CPUs, its own cpuacct-derived busy time, and a
	// btime matching its own (namespaced) boot.
	fs.Replace("/proc/stat", func(dst []byte, v pseudofs.View) ([]byte, error) {
		ns := nsOf(v)
		if ns.IsInit() {
			return appendHostStat(dst, k), nil
		}
		cg := k.Cgroup(v.CgroupPath)
		cores := float64(k.Options().Cores)
		if cg.QuotaCores > 0 && cg.QuotaCores < cores {
			cores = cg.QuotaCores
		}
		elapsed := k.Now() - ns.CreatedAt
		busyTicks := cg.CPUUsageNS / 1e9 * 100
		totalTicks := elapsed * cores * 100
		idleTicks := totalTicks - busyTicks
		if idleTicks < 0 {
			idleTicks = 0
		}
		dst = fmt.Appendf(dst, "cpu  %d 0 %d %d 0 0 0 0 0 0\n",
			int64(busyTicks*0.92), int64(busyTicks*0.08), int64(idleTicks))
		n := int(cores + 0.999)
		for i := 0; i < n; i++ {
			dst = fmt.Appendf(dst, "cpu%d %d 0 %d %d 0 0 0 0 0 0\n", i,
				int64(busyTicks*0.92/float64(n)), int64(busyTicks*0.08/float64(n)),
				int64(idleTicks/float64(n)))
		}
		dst = fmt.Appendf(dst, "intr %d\nctxt %d\nbtime %d\nprocesses %d\nprocs_running 1\nprocs_blocked 0\n",
			int64(busyTicks*12), int64(busyTicks*9),
			k.Options().WallClockNow+int64(ns.CreatedAt), len(k.TasksInNS(ns))+2)
		return dst, nil
	})

	// /proc/meminfo: the cgroup limit is the container's world.
	fs.Replace("/proc/meminfo", func(dst []byte, v pseudofs.View) ([]byte, error) {
		ns := nsOf(v)
		if ns.IsInit() {
			mi := k.MeminfoSnapshot()
			return appendMeminfo(dst, [10]uint64{mi.TotalKB, mi.FreeKB, mi.AvailableKB,
				mi.BuffersKB, mi.CachedKB, mi.ActiveKB, mi.InactiveKB,
				mi.SwapTotalKB, mi.SwapFreeKB, mi.DirtyKB}), nil
		}
		cg := k.Cgroup(v.CgroupPath)
		limit := cg.MemLimitKB
		if limit == 0 {
			limit = DefaultMemLimitKB
		}
		used := k.CgroupRSSKB(v.CgroupPath)
		if used > limit {
			used = limit
		}
		free := limit - used
		return appendMeminfo(dst, [10]uint64{limit, free, free,
			0, used / 8, used * 6 / 10, used * 3 / 10, 0, 0, 0}), nil
	})

	// /proc/loadavg: the container's own run queue.
	fs.Replace("/proc/loadavg", func(dst []byte, v pseudofs.View) ([]byte, error) {
		ns := nsOf(v)
		if ns.IsInit() {
			la := k.LoadAvgSnapshot()
			return fmt.Appendf(dst, "%.2f %.2f %.2f %d/%d %d\n",
				la.Load1, la.Load5, la.Load15, la.Runnable, la.Total, la.LastPID), nil
		}
		demand := k.CgroupDemandCores(v.CgroupPath)
		tasks := k.TasksInNS(ns)
		running := 0
		maxPID := 1
		for _, t := range tasks {
			if t.DemandCores > 0 {
				running++
			}
			if t.NSPID > maxPID {
				maxPID = t.NSPID
			}
		}
		return fmt.Appendf(dst, "%.2f %.2f %.2f %d/%d %d\n",
			demand, demand, demand, running, len(tasks), maxPID), nil
	})
}

// appendHostStat re-renders the global /proc/stat for the init view (the
// original handler is being replaced wholesale, so the host path must be
// regenerated here).
func appendHostStat(dst []byte, k *kernel.Kernel) []byte {
	s := k.StatSnapshot()
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
	dst = fmt.Appendf(dst, "cpu  %d %d %d %d %d %d %d 0 0 0\n",
		int64(tot[0]), int64(tot[1]), int64(tot[2]), int64(tot[3]),
		int64(tot[4]), int64(tot[5]), int64(tot[6]))
	for i, c := range s.PerCPU {
		dst = fmt.Appendf(dst, "cpu%d %d %d %d %d %d %d %d 0 0 0\n", i,
			int64(c.User), int64(c.Nice), int64(c.System), int64(c.Idle),
			int64(c.IOWait), int64(c.IRQ), int64(c.SoftIRQ))
	}
	return fmt.Appendf(dst, "intr %d\nctxt %d\nbtime %d\nprocesses %d\nprocs_running %d\nprocs_blocked 0\n",
		s.IntrTotal, s.CtxtSwitches, s.BootTime, s.Processes, s.ProcsRunning)
}

// meminfoRows are the /proc/meminfo rows stage 3 renders, in file order.
var meminfoRows = [10]string{"MemTotal:", "MemFree:", "MemAvailable:", "Buffers:",
	"Cached:", "Active:", "Inactive:", "SwapTotal:", "SwapFree:", "Dirty:"}

// appendMeminfo renders one value per meminfoRows entry, in kB.
func appendMeminfo(dst []byte, kb [10]uint64) []byte {
	for i, name := range meminfoRows {
		dst = fmt.Appendf(dst, "%-16s%8d kB\n", name, kb[i])
	}
	return dst
}
