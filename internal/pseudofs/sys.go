package pseudofs

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/power"
)

// sys lays out the /sys tree: cgroup controller files, NUMA node stats,
// cpuidle residency, the coretemp hwmon sensors, and the Intel RAPL powercap
// interface of Case Study II.
//
// The RAPL energy_uj and cpuacct handlers are the hottest reads in the
// repo — the attacker monitor samples them thousands of times per campaign
// — so they render through strconv.Append* with zero allocations.
func (l *layout) sys(hw Hardware, cores int) {
	// /sys/fs/cgroup/net_prio/net_prio.ifpriomap — Case Study I. The
	// handler renders the reader's own cgroup priority map, but iterates
	// init_net's device list (for_each_netdev_rcu(&init_net, …)), so a
	// container sees every physical interface of the host.
	// (LookupCgroup, not Cgroup: read handlers must never create table
	// entries — parallel cross-validation reads these concurrently.)
	l.addView("/sys/fs/cgroup/net_prio/net_prio.ifpriomap", 0, func(fs *FS, _ int32, b []byte, v View) ([]byte, error) {
		cg, _ := fs.k.LookupCgroup(v.CgroupPath)
		for _, dev := range fs.k.HostNetDevices() { // BUG preserved: host list
			prio := 0
			if cg != nil && cg.IfPrioMap != nil {
				prio = cg.IfPrioMap[dev.Name]
			}
			b = append(b, dev.Name...)
			b = append(b, ' ')
			b = apInt(b, int64(prio))
			b = append(b, '\n')
		}
		return b, nil
	})

	// cpuacct usage for the reader's cgroup — properly delegated.
	l.addView("/sys/fs/cgroup/cpuacct/cpuacct.usage", 0, func(fs *FS, _ int32, b []byte, v View) ([]byte, error) {
		var usage int64
		if cg, ok := fs.k.LookupCgroup(v.CgroupPath); ok {
			usage = int64(cg.CPUUsageNS)
		}
		b = apInt(b, usage)
		return append(b, '\n'), nil
	})

	// /sys/devices/system/node/node0/{numastat,vmstat,meminfo}: NUMA node
	// counters are host-global.
	l.add("/sys/devices/system/node/node0/numastat", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		n := fs.k.NUMASnapshot()
		b = append(b, "numa_hit "...)
		b = apInt(b, int64(n.Hit))
		b = append(b, "\nnuma_miss "...)
		b = apInt(b, int64(n.Miss))
		b = append(b, "\nnuma_foreign "...)
		b = apInt(b, int64(n.Foreign))
		b = append(b, "\ninterleave_hit "...)
		b = apInt(b, int64(n.InterleaveHit))
		b = append(b, "\nlocal_node "...)
		b = apInt(b, int64(n.LocalNode))
		b = append(b, "\nother_node "...)
		b = apInt(b, int64(n.OtherNode))
		return append(b, '\n'), nil
	})
	l.add("/sys/devices/system/node/node0/vmstat", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		mi := fs.k.MeminfoSnapshot()
		n := fs.k.NUMASnapshot()
		b = append(b, "nr_free_pages "...)
		b = apUint(b, mi.FreeKB/4)
		b = append(b, "\nnr_alloc_batch 63\nnr_inactive_anon "...)
		b = apUint(b, mi.InactiveKB/4)
		b = append(b, "\nnr_active_anon "...)
		b = apUint(b, mi.ActiveKB/4)
		b = append(b, "\nnuma_hit "...)
		b = apInt(b, int64(n.Hit))
		b = append(b, "\nnuma_local "...)
		b = apInt(b, int64(n.LocalNode))
		return append(b, '\n'), nil
	})
	l.add("/sys/devices/system/node/node0/meminfo", 0, func(fs *FS, _ int32, b []byte) ([]byte, error) {
		mi := fs.k.MeminfoSnapshot()
		b = append(b, "Node 0 MemTotal:       "...)
		b = apUint(b, mi.TotalKB)
		b = append(b, " kB\nNode 0 MemFree:        "...)
		b = apUint(b, mi.FreeKB)
		b = append(b, " kB\nNode 0 MemUsed:        "...)
		b = apUint(b, mi.TotalKB-mi.FreeKB)
		b = append(b, " kB\nNode 0 Active:         "...)
		b = apUint(b, mi.ActiveKB)
		b = append(b, " kB\nNode 0 Inactive:       "...)
		b = apUint(b, mi.InactiveKB)
		return append(b, " kB\n"...), nil
	})

	// /sys/devices/system/cpu/cpu#/cpuidle/state#/{name,usage,time}. The
	// argument packs the CPU and the state: cpu<<8 | state.
	for cpu := 0; cpu < cores; cpu++ {
		for si, name := range kernel.IdleStateNames {
			base := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpuidle/state%d", cpu, si)
			arg := int32(cpu<<8 | si)
			l.static(base+"/name", name+"\n")
			l.add(base+"/usage", arg, func(fs *FS, arg int32, b []byte) ([]byte, error) {
				b = apInt(b, int64(fs.k.IdleUsage(int(arg&0xff), int(arg>>8))))
				return append(b, '\n'), nil
			})
			l.add(base+"/time", arg, func(fs *FS, arg int32, b []byte) ([]byte, error) {
				b = apInt(b, int64(fs.k.IdleTimeUS(int(arg&0xff), int(arg>>8))))
				return append(b, '\n'), nil
			})
		}
	}

	// /sys/devices/system/cpu/cpu#/cpufreq/…: the DVFS governor's per-core
	// frequency interface. scaling_cur_freq and stats/total_trans are
	// host-global dynamic reads (the frequency channel — a container
	// observes the whole machine's load through its neighbours' P-state
	// transitions); the range/driver/governor files are fleet-static. The
	// argument is the CPU.
	for cpu := 0; cpu < cores; cpu++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu%d/cpufreq", cpu)
		arg := int32(cpu)
		l.add(base+"/scaling_cur_freq", arg, func(fs *FS, cpu int32, b []byte) ([]byte, error) {
			b = apUint(b, fs.k.Freq().CurKHz(int(cpu)))
			return append(b, '\n'), nil
		})
		l.add(base+"/stats/total_trans", arg, func(fs *FS, cpu int32, b []byte) ([]byte, error) {
			b = apUint(b, fs.k.Freq().Transitions(int(cpu)))
			return append(b, '\n'), nil
		})
		l.add(base+"/scaling_governor", arg, func(fs *FS, _ int32, b []byte) ([]byte, error) {
			b = append(b, fs.k.Freq().Name()...)
			return append(b, '\n'), nil
		})
		l.add(base+"/scaling_available_governors", arg, func(fs *FS, _ int32, b []byte) ([]byte, error) {
			b = append(b, "performance powersave "...)
			b = append(b, fs.k.Freq().Name()...)
			return append(b, '\n'), nil
		})
		l.static(base+"/scaling_driver", "acpi-cpufreq\n")
		minKHz := func(fs *FS, _ int32, b []byte) ([]byte, error) {
			b = apUint(b, fs.k.Freq().MinKHz())
			return append(b, '\n'), nil
		}
		maxKHz := func(fs *FS, _ int32, b []byte) ([]byte, error) {
			b = apUint(b, fs.k.Freq().MaxKHz())
			return append(b, '\n'), nil
		}
		l.add(base+"/scaling_min_freq", arg, minKHz)
		l.add(base+"/scaling_max_freq", arg, maxKHz)
		l.add(base+"/cpuinfo_min_freq", arg, minKHz)
		l.add(base+"/cpuinfo_max_freq", arg, maxKHz)
	}

	// /sys/devices/platform/coretemp.0/hwmon/hwmon1/temp#_input: DTS
	// sensors in millidegrees. temp1 is the package, temp2..tempN+1 the
	// cores. The argument is the core, -1 for the package.
	if hw.HasCoretemp {
		for c := -1; c < cores; c++ {
			l.addView(fmt.Sprintf("/sys/devices/platform/coretemp.0/hwmon/hwmon1/temp%d_input", c+2), int32(c),
				func(fs *FS, core int32, b []byte, v View) ([]byte, error) {
					t, err := fs.thermal.CoreTempC(v, int(core))
					if err != nil {
						return b, err
					}
					b = apInt(b, int64(t*1000))
					return append(b, '\n'), nil
				})
		}
	}

	// /sys/class/powercap/intel-rapl — Case Study II. energy_uj goes
	// through the FS's EnergyProvider so the power-based namespace can
	// virtualize it later without changing paths. The argument indexes
	// raplDomains.
	if hw.HasRAPL {
		for i, d := range raplDomains {
			l.static(d.dir+"/name", d.name+"\n")
			l.addView(d.dir+"/energy_uj", int32(i), func(fs *FS, i int32, b []byte, v View) ([]byte, error) {
				uj, err := fs.energy.EnergyUJ(v, raplDomains[i].dom)
				if err != nil {
					return b, err
				}
				b = apUint(b, uj)
				return append(b, '\n'), nil
			})
			l.add(d.dir+"/max_energy_range_uj", int32(i), func(fs *FS, _ int32, b []byte) ([]byte, error) {
				b = apUint(b, fs.k.Meter().MaxEnergyRangeUJ())
				return append(b, '\n'), nil
			})
		}
	}

	// /sys/devices/system/cpu/online: topology, fleet-static; the core
	// count is part of the layout key.
	l.static("/sys/devices/system/cpu/online", fmt.Sprintf("0-%d\n", cores-1))
}

// raplDomains are the RAPL powercap domains, outermost first.
var raplDomains = [...]struct {
	dir  string
	name string
	dom  power.Domain
}{
	{"/sys/class/powercap/intel-rapl:0", "package-0", power.Package},
	{"/sys/class/powercap/intel-rapl:0/intel-rapl:0:0", "core", power.Core},
	{"/sys/class/powercap/intel-rapl:0/intel-rapl:0:1", "dram", power.DRAM},
}
