package cloud

import (
	"repro/internal/container"
	"repro/internal/pseudofs"
)

// ProviderProfile captures everything that differs between the paper's five
// anonymized commercial clouds (CC1–CC5) and the local testbed: which
// container engine they run, what sensor hardware their fleet has, which
// channels they additionally mask, and which they rewrite to per-tenant
// subsets.
//
// The paper's Table I availability matrix is *generated* by running the
// leakage detector against these profiles — the profiles encode causes
// (masking policy, missing hardware), not the table itself.
type ProviderProfile struct {
	Name     string
	Runtime  container.RuntimeProfile
	Hardware pseudofs.Hardware
	// ExtraRules are the provider's hardening masks applied to every
	// tenant container on top of the engine defaults.
	ExtraRules []pseudofs.Rule
}

// LocalName names the local testbed, the default inspection target.
const LocalName = "local"

// LocalTestbed is the unhardened Docker host the paper first explores;
// every channel leaks.
func LocalTestbed() ProviderProfile {
	return ProviderProfile{
		Name:     LocalName,
		Runtime:  container.DockerProfile(),
		Hardware: pseudofs.DefaultHardware(),
	}
}

// LocalLXC is the LXC variant of the local testbed.
func LocalLXC() ProviderProfile {
	return ProviderProfile{
		Name:     "local-lxc",
		Runtime:  container.LXCProfile(),
		Hardware: pseudofs.DefaultHardware(),
	}
}

// CC1 masks the scheduler-debug dump but little else.
func CC1() ProviderProfile {
	return ProviderProfile{
		Name:     "cc1",
		Runtime:  container.DockerProfile(),
		Hardware: pseudofs.DefaultHardware(),
		ExtraRules: []pseudofs.Rule{
			{Pattern: "/proc/sched_debug", Do: pseudofs.Deny},
		},
	}
}

// CC2 also masks sched_debug (different engine generation, same posture).
func CC2() ProviderProfile {
	return ProviderProfile{
		Name:     "cc2",
		Runtime:  container.DockerProfile(),
		Hardware: pseudofs.DefaultHardware(),
		ExtraRules: []pseudofs.Rule{
			{Pattern: "/proc/sched_debug", Do: pseudofs.Deny},
		},
	}
}

// CC3 hardens the sysctl fs tree and the net_prio controller mount but
// leaves sched_debug readable.
func CC3() ProviderProfile {
	return ProviderProfile{
		Name:     "cc3",
		Runtime:  container.DockerProfile(),
		Hardware: pseudofs.DefaultHardware(),
		ExtraRules: []pseudofs.Rule{
			{Pattern: "/proc/sys/fs/**", Do: pseudofs.Deny},
			{Pattern: "/sys/fs/cgroup/net_prio/**", Do: pseudofs.Deny},
		},
	}
}

// CC4 runs an older fleet without RAPL or DTS sensors (pre-Sandy-Bridge
// Intel / AMD), masks timer_list and sched_debug, and does not mount the
// net_prio controller.
func CC4() ProviderProfile {
	return ProviderProfile{
		Name:     "cc4",
		Runtime:  container.DockerProfile(),
		Hardware: pseudofs.Hardware{HasRAPL: false, HasCoretemp: false},
		ExtraRules: []pseudofs.Rule{
			{Pattern: "/proc/timer_list", Do: pseudofs.Deny},
			{Pattern: "/proc/sched_debug", Do: pseudofs.Deny},
			{Pattern: "/sys/fs/cgroup/net_prio/**", Do: pseudofs.Deny},
			{Pattern: "/sys/devices/**", Do: pseudofs.Deny},
			{Pattern: "/sys/class/**", Do: pseudofs.Deny},
		},
	}
}

// CC5 is the most hardened: it denies most host-wide state and rewrites
// the remaining high-value channels (the ◐ "partial" entries of Table I
// — only the tenant's own cores and memory appear), which advanced
// attackers can still exploit.
func CC5() ProviderProfile {
	return ProviderProfile{
		Name:     "cc5",
		Runtime:  container.DockerProfile(),
		Hardware: pseudofs.DefaultHardware(),
		ExtraRules: []pseudofs.Rule{
			{Pattern: "/proc/locks", Do: pseudofs.Deny},
			{Pattern: "/proc/zoneinfo", Do: pseudofs.Deny},
			{Pattern: "/proc/uptime", Do: pseudofs.Deny},
			{Pattern: "/proc/stat", Do: pseudofs.Filter, Transform: keepLines(6)},
			{Pattern: "/proc/meminfo", Do: pseudofs.Filter, Transform: keepLines(3)},
			{Pattern: "/proc/loadavg", Do: pseudofs.Deny},
			{Pattern: "/proc/cpuinfo", Do: pseudofs.Filter, Transform: keepLines(12)},
			{Pattern: "/proc/schedstat", Do: pseudofs.Deny},
			{Pattern: "/sys/fs/cgroup/net_prio/**", Do: pseudofs.Deny},
			{Pattern: "/sys/devices/**", Do: pseudofs.Deny},
			{Pattern: "/sys/class/**", Do: pseudofs.Deny},
		},
	}
}

// CommercialClouds returns CC1–CC5 in order.
func CommercialClouds() []ProviderProfile {
	return []ProviderProfile{CC1(), CC2(), CC3(), CC4(), CC5()}
}

// ProviderByName builds the inspectable provider (a Table I column: the
// local testbeds or CC1–CC5) with the given name, and no other profile.
func ProviderByName(name string) (ProviderProfile, bool) {
	build := providerBuilder(name)
	if build == nil {
		return ProviderProfile{}, false
	}
	return build(), true
}

// IsProvider reports whether name is an inspectable provider without
// building its profile.
func IsProvider(name string) bool { return providerBuilder(name) != nil }

// providerBuilder returns the constructor of the named inspectable
// provider, or nil.
func providerBuilder(name string) func() ProviderProfile {
	switch name {
	case LocalName:
		return LocalTestbed
	case "local-lxc":
		return LocalLXC
	case "cc1":
		return CC1
	case "cc2":
		return CC2
	case "cc3":
		return CC3
	case "cc4":
		return CC4
	case "cc5":
		return CC5
	}
	return nil
}

// GVisorTarget is the local testbed re-run under a gVisor sandbox: the
// Sentry proxies procfs/sysfs, so every classic channel goes Masked while
// the cpufreq passthrough keeps the frequency channel alive.
func GVisorTarget() ProviderProfile {
	return ProviderProfile{
		Name:     "gvisor",
		Runtime:  container.GVisorProfile(),
		Hardware: pseudofs.DefaultHardware(),
	}
}

// KataTarget is the testbed under a Kata VM sandbox. The guest sees
// VM-shaped hardware — no RAPL, no DTS sensors — so its sensor channels
// read Absent where gVisor's read Masked.
func KataTarget() ProviderProfile {
	return ProviderProfile{
		Name:     "kata",
		Runtime:  container.KataProfile(),
		Hardware: pseudofs.Hardware{HasRAPL: false, HasCoretemp: false},
	}
}

// RootlessTarget is the testbed under rootless Docker.
func RootlessTarget() ProviderProfile {
	return ProviderProfile{
		Name:     "rootless",
		Runtime:  container.RootlessProfile(),
		Hardware: pseudofs.DefaultHardware(),
	}
}

// PodmanTarget is the testbed under Podman defaults.
func PodmanTarget() ProviderProfile {
	return ProviderProfile{
		Name:     "podman",
		Runtime:  container.PodmanProfile(),
		Hardware: pseudofs.DefaultHardware(),
	}
}

// RuntimeTargets returns the four modern-runtime inspection targets in
// matrix column order. They reuse the local testbed's fleet shape; only
// the engine profile (and, for Kata, the virtual hardware) changes — the
// point of the runtime matrix is isolating what the runtime masks.
func RuntimeTargets() []ProviderProfile {
	return []ProviderProfile{GVisorTarget(), KataTarget(), RootlessTarget(), PodmanTarget()}
}

// MatrixTargets returns the full column set of the runtime-aware Table I
// matrix: the five commercial clouds followed by the four runtime targets.
func MatrixTargets() []ProviderProfile {
	return append(CommercialClouds(), RuntimeTargets()...)
}

// keepLines returns a Transform that keeps only the first n lines of the
// content — modeling CC5's per-tenant rewrite, where a tenant sees only its
// own slice of the host's cores and memory.
func keepLines(n int) func(string) string {
	return func(content string) string {
		var out []byte
		lines := 0
		for i := 0; i < len(content); i++ {
			out = append(out, content[i])
			if content[i] == '\n' {
				lines++
				if lines >= n {
					break
				}
			}
		}
		return string(out)
	}
}
