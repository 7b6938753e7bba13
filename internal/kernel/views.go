package kernel

// This file holds the structured snapshots pseudo-file handlers render.
// Handlers that model Linux's *incomplete* namespacing call the global
// variants; properly-namespaced files use the NS-aware ones.

// Meminfo is the host-wide memory accounting behind /proc/meminfo,
// /proc/zoneinfo, and the per-node sysfs files. All quantities are KiB.
type Meminfo struct {
	TotalKB     uint64
	FreeKB      uint64
	AvailableKB uint64
	BuffersKB   uint64
	CachedKB    uint64
	ActiveKB    uint64
	InactiveKB  uint64
	SwapTotalKB uint64
	SwapFreeKB  uint64
	DirtyKB     uint64
}

// MeminfoSnapshot computes the current global memory state.
func (k *Kernel) MeminfoSnapshot() Meminfo {
	var rss uint64
	for _, t := range k.tasks {
		rss += t.RSSKB
	}
	cached := uint64(k.cachedKB)
	used := k.memBaseUsedKB + rss + cached
	var free uint64
	if used < k.opts.MemTotalKB {
		free = k.opts.MemTotalKB - used
	}
	return Meminfo{
		TotalKB:     k.opts.MemTotalKB,
		FreeKB:      free,
		AvailableKB: free + cached*8/10,
		BuffersKB:   k.memBaseUsedKB / 8,
		CachedKB:    cached,
		ActiveKB:    used * 6 / 10,
		InactiveKB:  used * 3 / 10,
		SwapTotalKB: 2 * 1024 * 1024,
		SwapFreeKB:  2 * 1024 * 1024,
		DirtyKB:     uint64(k.lastBusy * 900),
	}
}

// Zone is one row family of /proc/zoneinfo. Quantities are 4 KiB pages.
type Zone struct {
	Name    string
	Free    uint64
	Min     uint64
	Low     uint64
	High    uint64
	Spanned uint64
	Present uint64
	Managed uint64
}

// ZoneSnapshot derives the physical zone layout from the memory state.
func (k *Kernel) ZoneSnapshot() []Zone {
	mi := k.MeminfoSnapshot()
	totalPages := mi.TotalKB / 4
	freePages := mi.FreeKB / 4
	mk := func(name string, frac float64) Zone {
		span := uint64(float64(totalPages) * frac)
		free := uint64(float64(freePages) * frac)
		return Zone{
			Name:    name,
			Free:    free,
			Min:     span / 256,
			Low:     span / 204,
			High:    span / 170,
			Spanned: span,
			Present: span - span/64,
			Managed: span - span/32,
		}
	}
	return []Zone{
		mk("DMA", 0.001),
		mk("DMA32", 0.18),
		mk("Normal", 0.819),
	}
}

// LoadAvg is the /proc/loadavg snapshot.
type LoadAvg struct {
	Load1, Load5, Load15 float64
	Runnable, Total      int
	LastPID              int
}

// LoadAvgSnapshot returns the current load averages and task counts.
func (k *Kernel) LoadAvgSnapshot() LoadAvg {
	runnable := 0
	for _, t := range k.tasks {
		if t.DemandCores > 0 {
			runnable++
		}
	}
	return LoadAvg{
		Load1:    k.load1,
		Load5:    k.load5,
		Load15:   k.load15,
		Runnable: runnable,
		Total:    len(k.tasks) + 120, // plus resident kernel threads
		LastPID:  k.nextPID,
	}
}

// Stat is the /proc/stat snapshot: per-CPU tick accounting plus global
// event counters.
type Stat struct {
	PerCPU       []CPUTimes
	IntrTotal    uint64
	CtxtSwitches uint64
	BootTime     int64
	Processes    uint64
	ProcsRunning int
}

// StatSnapshot returns the kernel-activity counters.
func (k *Kernel) StatSnapshot() Stat {
	var intr float64
	for _, irq := range k.irqs {
		for _, v := range irq.PerCPU {
			intr += v
		}
	}
	running := 0
	for _, t := range k.tasks {
		if t.DemandCores > 0 {
			running++
		}
	}
	per := make([]CPUTimes, len(k.cpu))
	copy(per, k.cpu)
	return Stat{
		PerCPU:       per,
		IntrTotal:    uint64(intr),
		CtxtSwitches: uint64(k.ctxtSwitches),
		BootTime:     k.opts.BootWallClock,
		Processes:    k.forksTotal,
		ProcsRunning: running + 1,
	}
}

// Interrupts returns the IRQ table (global; /proc/interrupts has no
// namespace awareness).
func (k *Kernel) Interrupts() []*IRQ { return k.irqs }

// SoftIRQs returns the softirq table (global, like /proc/softirqs).
func (k *Kernel) SoftIRQs() []*SoftIRQ { return k.softirqs }

// SchedStatCPU is one cpu row of /proc/schedstat.
type SchedStatCPU struct {
	RunNS      uint64
	WaitNS     uint64
	Timeslices uint64
}

// SchedStatSnapshot returns per-CPU scheduler statistics.
func (k *Kernel) SchedStatSnapshot() []SchedStatCPU {
	out := make([]SchedStatCPU, len(k.schedRunNS))
	for i := range out {
		out[i] = SchedStatCPU{
			RunNS:      uint64(k.schedRunNS[i]),
			WaitNS:     uint64(k.schedWaitNS[i]),
			Timeslices: k.timeslices[i],
		}
	}
	return out
}

// NewidleCost returns the per-CPU max_newidle_lb_cost scheduler-domain
// values.
func (k *Kernel) NewidleCost() []uint64 {
	out := make([]uint64, len(k.newidleCost))
	copy(out, k.newidleCost)
	return out
}

// EntropyAvail returns the current /proc/sys/kernel/random/entropy_avail.
func (k *Kernel) EntropyAvail() int { return int(k.entropyAvail) }

// GenUUID returns a fresh random UUID (/proc/sys/kernel/random/uuid).
func (k *Kernel) GenUUID() string { return k.genUUID() }

// VFSStats is the dentry/inode/file-handle accounting under /proc/sys/fs.
type VFSStats struct {
	Dentries     uint64
	DentryUnused uint64
	Inodes       uint64
	InodesFree   uint64
	FilesOpen    uint64
	FilesMax     uint64
}

// VFSSnapshot returns the VFS object counts.
func (k *Kernel) VFSSnapshot() VFSStats {
	return VFSStats{
		Dentries:     uint64(k.dentries),
		DentryUnused: uint64(k.dentryUnused),
		Inodes:       uint64(k.inodes),
		InodesFree:   uint64(k.inodesFree),
		FilesOpen:    uint64(k.filesOpen),
		FilesMax:     1626526,
	}
}

// Ext4GroupSnapshot returns the mb_groups allocator table.
func (k *Kernel) Ext4GroupSnapshot() []Ext4Group {
	out := make([]Ext4Group, len(k.ext4Groups))
	copy(out, k.ext4Groups)
	return out
}

// NUMASnapshot returns node 0's allocation counters.
func (k *Kernel) NUMASnapshot() NUMAStats { return k.numa }

// IdleStateSnapshot returns the cpuidle state table.
func (k *Kernel) IdleStateSnapshot() []IdleState {
	out := make([]IdleState, len(k.idleStates))
	for i, st := range k.idleStates {
		out[i] = IdleState{
			Name:         st.Name,
			UsagePerCPU:  append([]float64(nil), st.UsagePerCPU...),
			TimeUSPerCPU: append([]float64(nil), st.TimeUSPerCPU...),
		}
	}
	return out
}

// IdleUsage returns cpuidle state's entry count on cpu — the
// allocation-free read behind one cpuidle/state#/usage file.
func (k *Kernel) IdleUsage(state, cpu int) float64 { return k.idleStates[state].UsagePerCPU[cpu] }

// IdleTimeUS returns cpuidle state's residency on cpu in microseconds —
// the allocation-free read behind one cpuidle/state#/time file.
func (k *Kernel) IdleTimeUS(state, cpu int) float64 { return k.idleStates[state].TimeUSPerCPU[cpu] }

// Modules returns the loaded-module list — identical across the fleet,
// which is exactly why the paper ranks /proc/modules useless for
// co-residence despite leaking host configuration.
func (k *Kernel) Modules() []string {
	return []string{
		"nf_conntrack_ipv4 20480 2", "nf_defrag_ipv4 16384 1 nf_conntrack_ipv4",
		"xt_conntrack 16384 1", "nf_conntrack 106496 2",
		"br_netfilter 24576 0", "bridge 126976 1 br_netfilter",
		"stp 16384 1 bridge", "llc 16384 2 stp,bridge",
		"overlay 49152 0", "aufs 245760 0",
		"binfmt_misc 20480 1", "intel_rapl 20480 0",
		"x86_pkg_temp_thermal 16384 0", "coretemp 16384 0",
		"kvm_intel 172032 0", "kvm 544768 1 kvm_intel",
		"irqbypass 16384 1 kvm", "crct10dif_pclmul 16384 0",
		"crc32_pclmul 16384 0", "ghash_clmulni_intel 16384 0",
		"aesni_intel 167936 0", "aes_x86_64 20480 1 aesni_intel",
		"lrw 16384 1 aesni_intel", "glue_helper 16384 1 aesni_intel",
		"ablk_helper 16384 1 aesni_intel", "cryptd 20480 3",
		"psmouse 131072 0", "e1000e 245760 0",
		"ptp 20480 1 e1000e", "pps_core 20480 1 ptp",
		"ahci 36864 2", "libahci 32768 1 ahci",
		"ext4 585728 2", "mbcache 16384 1 ext4",
		"jbd2 106496 1 ext4", "autofs4 40960 2",
	}
}

// KernelVersion returns the /proc/version line.
func (k *Kernel) KernelVersion() string {
	return "Linux version " + k.opts.KernelVersion +
		" (build@fleet) (gcc version 5.4.0 20160609 (Ubuntu 5.4.0-6ubuntu1~16.04.4)) " +
		"#1 SMP Mon Nov 14 10:02:06 UTC 2016"
}

// CPUInfo describes one logical CPU of /proc/cpuinfo.
type CPUInfo struct {
	Processor int
	Model     string
	MHz       float64
	CacheKB   int
	Cores     int
}

// CPUInfoSnapshot returns the per-CPU hardware description — static and
// fleet-wide identical, hence unrankable for co-residence.
func (k *Kernel) CPUInfoSnapshot() []CPUInfo {
	out := make([]CPUInfo, k.opts.Cores)
	for i := range out {
		out[i] = CPUInfo{
			Processor: i,
			Model:     k.opts.CPUModel,
			MHz:       k.opts.CPUMHz,
			CacheKB:   8192,
			Cores:     k.opts.Cores,
		}
	}
	return out
}

// VMStats is the global VM event accounting behind /proc/vmstat.
type VMStats struct {
	PgFaults  uint64
	PgAllocs  uint64
	FreePages uint64
}

// VMStatSnapshot returns the current VM counters.
func (k *Kernel) VMStatSnapshot() VMStats {
	return VMStats{
		PgFaults:  uint64(k.pgFaults),
		PgAllocs:  uint64(k.pgAllocs),
		FreePages: k.MeminfoSnapshot().FreeKB / 4,
	}
}

// DiskStats is the block-device IO accounting behind /proc/diskstats.
type DiskStats struct {
	SectorsRead    uint64
	SectorsWritten uint64
}

// DiskStatSnapshot returns the host disk counters.
func (k *Kernel) DiskStatSnapshot() DiskStats {
	return DiskStats{
		SectorsRead:    uint64(k.sectorsRead),
		SectorsWritten: uint64(k.sectorsWritten),
	}
}

// SoftnetSnapshot returns the per-CPU processed-packet counters behind
// /proc/net/softnet_stat.
func (k *Kernel) SoftnetSnapshot() []uint64 {
	out := make([]uint64, len(k.softnetPackets))
	for i, v := range k.softnetPackets {
		out[i] = uint64(v)
	}
	return out
}

// BuddyInfo returns per-order free block counts for the Normal zone,
// derived from the free page pool (a varying physical-memory channel).
func (k *Kernel) BuddyInfo() []uint64 {
	free := k.MeminfoSnapshot().FreeKB / 4
	out := make([]uint64, 11)
	remaining := free
	for order := 10; order >= 0; order-- {
		blockPages := uint64(1) << uint(order)
		// Most free memory sits in high orders on a healthy system.
		share := remaining * 6 / 10
		out[order] = share / blockPages
		remaining -= out[order] * blockPages
	}
	out[0] += remaining
	return out
}

// NetDevices returns the device list of the given NET namespace; passing the
// init namespace yields the physical host devices. This is the *correct*
// namespaced accessor.
func (k *Kernel) NetDevices(ns *NSSet) []NetDev {
	return append([]NetDev(nil), ns.NetDevs...)
}

// HostNetDevices returns init_net's devices regardless of the caller's
// namespace — the for_each_netdev_rcu(&init_net, …) bug of Case Study I.
func (k *Kernel) HostNetDevices() []NetDev {
	return append([]NetDev(nil), k.initNS.NetDevs...)
}
