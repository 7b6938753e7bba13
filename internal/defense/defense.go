// Package defense implements the paper's two-stage defense mechanism
// (Section V-A):
//
//   - Stage 1 — channel masking: generate AppArmor-style deny rules for
//     every channel the detector found leaking, as the immediate fix cloud
//     operators can deploy today. The stage also assesses collateral
//     damage: legitimate applications that read the masked files break.
//   - Stage 2 — namespace fixes: retrofit the leaky pseudo-file handlers
//     with namespace-aware implementations (fixing the missing context
//     checks of Case Study I and friends), and install the power-based
//     namespace (internal/powerns) for the RAPL channel.
//
// Stage 1 is quick but restrictive; stage 2 is the fundamental fix. The
// ablation bench compares residual leakage and application breakage of the
// two stages.
package defense

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/powerns"
	"repro/internal/pseudofs"
)

// MaskingRules generates the stage-1 deny policy: one rule per channel the
// inspection found Available or PartiallyAvailable.
func MaskingRules(reports []core.ChannelReport) []pseudofs.Rule {
	var rules []pseudofs.Rule
	for _, rep := range reports {
		if rep.Availability == core.Unavailable {
			continue
		}
		for _, pat := range rep.Channel.Paths {
			rules = append(rules, pseudofs.Rule{Pattern: pat, Do: pseudofs.Deny})
		}
	}
	return rules
}

// AppProfile describes a legitimate containerized application by the
// pseudo-files it reads — monitoring agents, JVMs sizing their heaps from
// /proc/meminfo, schedulers reading loadavg, and so on.
type AppProfile struct {
	Name  string
	Reads []string
}

// CommonApps is a survey of pseudo-file consumers used to estimate the
// stage-1 collateral damage the paper warns about ("masking … may add
// restrictions for the functionality of containerized applications").
func CommonApps() []AppProfile {
	return []AppProfile{
		{Name: "jvm-heap-sizing", Reads: []string{"/proc/meminfo", "/proc/cpuinfo"}},
		{Name: "node-exporter", Reads: []string{"/proc/stat", "/proc/meminfo", "/proc/loadavg", "/proc/interrupts"}},
		{Name: "top", Reads: []string{"/proc/stat", "/proc/meminfo", "/proc/uptime", "/proc/loadavg"}},
		{Name: "numactl", Reads: []string{"/sys/devices/system/node/node0/meminfo"}},
		{Name: "powertop", Reads: []string{"/sys/class/powercap/intel-rapl:0/energy_uj", "/proc/interrupts"}},
		{Name: "irqbalance", Reads: []string{"/proc/interrupts"}},
		{Name: "glibc-sysconf", Reads: []string{"/proc/cpuinfo", "/proc/meminfo"}},
		{Name: "uptime-cli", Reads: []string{"/proc/uptime", "/proc/loadavg"}},
	}
}

// Impact is one application's breakage under a masking policy.
type Impact struct {
	App         string
	BrokenReads []string
	TotalReads  int
}

// AssessImpact reports which application reads a stage-1 policy would
// break.
func AssessImpact(rules []pseudofs.Rule, apps []AppProfile) []Impact {
	policy := pseudofs.Policy{Rules: rules}.Index()
	var out []Impact
	for _, app := range apps {
		imp := Impact{App: app.Name, TotalReads: len(app.Reads)}
		for _, path := range app.Reads {
			if i := policy.First(path); i >= 0 && rules[i].Do == pseudofs.Deny {
				imp.BrokenReads = append(imp.BrokenReads, path)
			}
		}
		if len(imp.BrokenReads) > 0 {
			out = append(out, imp)
		}
	}
	return out
}

// ApplyNamespaceFixes retrofits the stage-2 fixes onto a host's pseudo
// filesystem: every handler that leaked through a missing namespace check
// is replaced by a namespace-aware implementation. The RAPL channel is
// fixed separately by installing a powerns.Namespace (see Install).
func ApplyNamespaceFixes(fs *pseudofs.FS) {
	k := fs.Kernel()

	nsOf := func(v pseudofs.View) *kernel.NSSet {
		if v.NS == nil {
			return k.InitNS()
		}
		return v.NS
	}

	// Fixed handlers append into the caller's buffer like every built-in
	// handler (see pseudofs.Handler); defended hosts stay on the
	// zero-allocation render path.

	// Case Study I fix: iterate the reader's NET namespace, not init_net.
	fs.Replace("/sys/fs/cgroup/net_prio/net_prio.ifpriomap", func(b []byte, v pseudofs.View) ([]byte, error) {
		cg := k.Cgroup(v.CgroupPath)
		for _, dev := range k.NetDevices(nsOf(v)) {
			prio := 0
			if cg.IfPrioMap != nil {
				prio = cg.IfPrioMap[dev.Name]
			}
			b = append(b, dev.Name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(prio), 10)
			b = append(b, '\n')
		}
		return b, nil
	})

	// sched_debug: only tasks of the reader's PID namespace.
	fs.Replace("/proc/sched_debug", func(b []byte, v pseudofs.View) ([]byte, error) {
		b = append(b, "Sched Debug Version: v0.11, 4.7.0-repro (namespaced)\n"...)
		b = append(b, "\nrunnable tasks:\n"...)
		for _, t := range k.TasksInNS(nsOf(v)) {
			if t.DemandCores > 0 {
				b = append(b, 'R')
			} else {
				b = append(b, ' ')
			}
			b = append(b, ' ')
			b = appendPad(b, 15, t.Name)
			b = append(b, ' ')
			b = appendPadInt(b, 5, int64(t.NSPID))
			b = append(b, '\n')
		}
		return b, nil
	})

	// timer_list: only timers owned inside the reader's PID namespace. The
	// init view additionally shows the kernel's own tick timers (our
	// kernel does not model kernel threads as tasks, so these rows stand
	// in for them).
	fs.Replace("/proc/timer_list", func(b []byte, v pseudofs.View) ([]byte, error) {
		ns := nsOf(v)
		b = append(b, "Timer List Version: v0.8 (namespaced)\n"...)
		i := 0
		if ns.IsInit() {
			for cpu := 0; cpu < k.Options().Cores; cpu++ {
				b = append(b, " #"...)
				b = strconv.AppendInt(b, int64(i), 10)
				b = append(b, ": tick_sched_timer, swapper/"...)
				b = strconv.AppendInt(b, int64(cpu), 10)
				b = append(b, "/0\n"...)
				i++
			}
		}
		for _, t := range k.TimerOwnersInNS(ns) {
			b = append(b, " #"...)
			b = strconv.AppendInt(b, int64(i), 10)
			b = append(b, ": hrtimer_wakeup, "...)
			b = append(b, t.Name...)
			b = append(b, '/')
			b = strconv.AppendInt(b, int64(t.NSPID), 10)
			b = append(b, '\n')
			i++
		}
		return b, nil
	})

	// locks: only the reader's cgroup's locks; the init view also keeps
	// the system daemons' locks.
	fs.Replace("/proc/locks", func(b []byte, v pseudofs.View) ([]byte, error) {
		locks := k.FileLocksInCgroup(v.CgroupPath)
		if nsOf(v).IsInit() {
			locks = append(locks, k.SystemLocks()...)
		}
		for _, l := range locks {
			b = strconv.AppendInt(b, int64(l.ID), 10)
			b = append(b, ": "...)
			b = append(b, l.Type...)
			b = append(b, "  "...)
			b = append(b, l.Mode...)
			b = append(b, "  "...)
			b = append(b, l.RW...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(l.HostPID), 10)
			b = append(b, " 08:01:"...)
			b = strconv.AppendUint(b, l.Inode, 10)
			b = append(b, " 0 EOF\n"...)
		}
		return b, nil
	})

	// uptime: container-relative uptime; idle scaled to the container's
	// share (approximated as elapsed time, since per-cgroup idle is not
	// defined).
	fs.Replace("/proc/uptime", func(b []byte, v pseudofs.View) ([]byte, error) {
		ns := nsOf(v)
		up, idle := 0.0, 0.0
		if ns.IsInit() {
			up, idle = k.Uptime()
		} else {
			up = k.Now() - ns.CreatedAt
			cg := k.Cgroup(v.CgroupPath)
			used := cg.CPUUsageNS / 1e9
			idle = up*float64(k.Options().Cores) - used
			if idle < 0 {
				idle = 0
			}
		}
		b = strconv.AppendFloat(b, up, 'f', 2, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, idle, 'f', 2, 64)
		return append(b, '\n'), nil
	})

	// boot_id: per-namespace identifier.
	fs.Replace("/proc/sys/kernel/random/boot_id", func(b []byte, v pseudofs.View) ([]byte, error) {
		ns := nsOf(v)
		if ns.IsInit() || ns.BootID == "" {
			b = append(b, k.BootID()...)
		} else {
			b = append(b, ns.BootID...)
		}
		return append(b, '\n'), nil
	})
}

// appendPad appends s right-aligned in a width-rune field (fmt's %*s).
func appendPad(b []byte, width int, s string) []byte {
	for n := width - len(s); n > 0; n-- {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// appendPadInt appends v right-aligned in a width-rune field (fmt's %*d).
func appendPadInt(b []byte, width int, v int64) []byte {
	var tmp [24]byte
	s := strconv.AppendInt(tmp[:0], v, 10)
	for n := width - len(s); n > 0; n-- {
		b = append(b, ' ')
	}
	return append(b, s...)
}

// TwoStage bundles a full deployment of the defense on one host.
type TwoStage struct {
	// Stage1 is the generated masking policy (informational once stage 2
	// is applied; operators may deploy it alone first).
	Stage1 []pseudofs.Rule
	// PowerNS is the installed power-based namespace.
	PowerNS *powerns.Namespace
}

// Deploy runs the full pipeline on a host: inspect → generate stage-1
// masks → apply stage-2 namespace fixes → install the power namespace with
// the given trained model. Containers must still be registered with
// PowerNS as they are created.
func Deploy(fs *pseudofs.FS, reports []core.ChannelReport, model *powerns.Model) *TwoStage {
	d := &TwoStage{Stage1: MaskingRules(reports)}
	ApplyNamespaceFixes(fs)
	d.PowerNS = powerns.New(fs.Kernel(), model)
	d.PowerNS.Install(fs)
	return d
}
