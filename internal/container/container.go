// Package container implements the container runtime of the testbed: it
// assembles the kernel building blocks — a fresh namespace set, per-
// controller cgroups, and read-only procfs/sysfs mounts — into container
// instances, the way Docker or LXC do. Runtime profiles model each engine's
// default masking policy (in the paper's 2016-era defaults neither engine
// masked any of the Table I channels, which is why the local testbed leaks
// everything).
package container

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/pseudofs"
	"repro/internal/workload"
)

// ErrNotFound is returned for operations on unknown container IDs.
var ErrNotFound = errors.New("container: not found")

// RuntimeProfile is a container engine's identity and default pseudo-file
// masking policy.
type RuntimeProfile struct {
	Engine string
	Policy pseudofs.Policy
}

// DockerProfile models Docker 1.12 defaults: a handful of procfs entries
// are masked (none of them the paper's channels).
func DockerProfile() RuntimeProfile {
	return RuntimeProfile{
		Engine: "docker",
		Policy: pseudofs.Policy{Name: "docker-default", Rules: []pseudofs.Rule{
			{Pattern: "/proc/kcore", Do: pseudofs.Deny},
			{Pattern: "/proc/keys", Do: pseudofs.Deny},
			{Pattern: "/proc/timer_stats", Do: pseudofs.Deny},
			{Pattern: "/sys/firmware/**", Do: pseudofs.Deny},
		}},
	}
}

// LXCProfile models LXC defaults, which mask nothing relevant either.
func LXCProfile() RuntimeProfile {
	return RuntimeProfile{Engine: "lxc", Policy: pseudofs.Policy{Name: "lxc-default"}}
}

// sandboxRules is the shared shape of the gVisor/Kata policies: the
// sandbox serves /proc and /sys from its own state, so no read reaches
// host kernel data and every classic channel goes Masked. The one
// passthrough is cpufreq — DVFS is machine-global hardware state a
// sandbox cannot virtualize away, which is exactly the surface the
// frequency channel (Dipta et al., arXiv 2404.10715) exploits.
func sandboxRules() []pseudofs.Rule {
	return []pseudofs.Rule{
		{Pattern: "/sys/devices/system/cpu/cpu*/cpufreq/*", Do: pseudofs.Allow},
		{Pattern: "/sys/devices/system/cpu/cpu*/cpufreq/stats/*", Do: pseudofs.Allow},
		{Pattern: "/proc/**", Do: pseudofs.Deny},
		{Pattern: "/sys/**", Do: pseudofs.Deny},
	}
}

// GVisorProfile models a gVisor (runsc) sandbox: the Sentry proxies every
// procfs/sysfs read and answers from application-layer state, never from
// the host kernel.
func GVisorProfile() RuntimeProfile {
	return RuntimeProfile{
		Engine: "gvisor",
		Policy: pseudofs.Policy{Name: "gvisor-sentry", Rules: sandboxRules()},
	}
}

// KataProfile models a Kata VM sandbox: the guest kernel has private
// procfs/sysfs trees, so host kernel state is unreachable. Deployments
// pair it with VM-shaped hardware (no RAPL, no coretemp — see
// cloud.RuntimeTargets), which is why its sensor channels read Absent
// where gVisor's read Masked.
func KataProfile() RuntimeProfile {
	return RuntimeProfile{
		Engine: "kata",
		Policy: pseudofs.Policy{Name: "kata-guest", Rules: sandboxRules()},
	}
}

// RootlessProfile models rootless Docker: the daemon runs unprivileged, so
// it cannot mount the net_prio cgroup controller (Case Study I's channel
// disappears) on top of the stock Docker masks.
func RootlessProfile() RuntimeProfile {
	p := DockerProfile()
	return RuntimeProfile{
		Engine: "rootless",
		Policy: pseudofs.Policy{
			Name: "rootless-default",
			Rules: append([]pseudofs.Rule{
				{Pattern: "/sys/fs/cgroup/net_prio/**", Do: pseudofs.Deny},
			}, p.Policy.Rules...),
		},
	}
}

// PodmanProfile models Podman's default seccomp/SELinux posture: Docker's
// masks plus denials of the scheduler-introspection files its default
// policy blocks.
func PodmanProfile() RuntimeProfile {
	p := DockerProfile()
	return RuntimeProfile{
		Engine: "podman",
		Policy: pseudofs.Policy{
			Name: "podman-default",
			Rules: append([]pseudofs.Rule{
				{Pattern: "/proc/timer_list", Do: pseudofs.Deny},
				{Pattern: "/proc/sched_debug", Do: pseudofs.Deny},
			}, p.Policy.Rules...),
		},
	}
}

// Runtime creates and manages containers on one host.
type Runtime struct {
	k       *kernel.Kernel
	fs      *pseudofs.FS
	profile RuntimeProfile

	runtimeState
}

// runtimeState is a Runtime's mutable state.
type runtimeState struct {
	containers map[string]*Container
	seq        int
}

// NewRuntime returns a runtime over the host's kernel and pseudo-fs tree.
func NewRuntime(k *kernel.Kernel, fs *pseudofs.FS, profile RuntimeProfile) *Runtime {
	return &Runtime{k: k, fs: fs, profile: profile,
		runtimeState: runtimeState{containers: make(map[string]*Container)}}
}

// Kernel returns the host kernel the runtime drives.
func (r *Runtime) Kernel() *kernel.Kernel { return r.k }

// FS returns the host's pseudo-filesystem tree.
func (r *Runtime) FS() *pseudofs.FS { return r.fs }

// Create starts a container: fresh namespaces, a cgroup under
// /<engine>/<id>, a perf accounting group, and procfs/sysfs mounted
// read-only under the runtime policy plus any extra rules (a cloud
// provider's hardening, stage-1 defense masks).
func (r *Runtime) Create(name string, extra ...pseudofs.Rule) *Container {
	r.seq++
	id := fmt.Sprintf("%s-%08x", name, uint32(r.seq)*2654435761)
	cgPath := fmt.Sprintf("/%s/%s", r.profile.Engine, id)
	ns := r.k.NewNSSet(name, cgPath)
	r.k.Cgroup(cgPath) // materialize
	r.k.Perf().CreateGroup(cgPath)

	policy := pseudofs.Policy{
		Name:  r.profile.Policy.Name,
		Rules: append(append([]pseudofs.Rule(nil), extra...), r.profile.Policy.Rules...),
	}
	c := &Container{
		ID:         id,
		Name:       name,
		CgroupPath: cgPath,
		NS:         ns,
		mount:      pseudofs.NewMount(r.fs, pseudofs.View{NS: ns, CgroupPath: cgPath}, policy),
		base:       policy,
		runtime:    r,
	}
	// Every container has an init process (pid 1 inside) and a host-side
	// veth leg with a randomized name (which leaks through the global
	// net-device iteration of Case Study I).
	c.init = r.k.Spawn(name+"-init", ns, cgPath, 0, workload.IdleLoop.Rates.Times(0))
	c.veth = fmt.Sprintf("veth%07x", uint32(r.seq)*2246822519%0xfffffff)
	r.k.AddHostNetDev(c.veth)
	r.containers[id] = c
	return c
}

// Destroy stops all tasks of the container and tears down its cgroup.
func (r *Runtime) Destroy(id string) error {
	c, ok := r.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	for _, t := range c.tasks {
		r.k.Exit(t.HostPID)
	}
	r.k.Exit(c.init.HostPID)
	r.k.RemoveHostNetDev(c.veth)
	r.k.RemoveCgroup(c.CgroupPath)
	delete(r.containers, id)
	return nil
}

// Get returns a container by ID.
func (r *Runtime) Get(id string) (*Container, error) {
	c, ok := r.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return c, nil
}

// List returns the live containers (order unspecified).
func (r *Runtime) List() []*Container {
	out := make([]*Container, 0, len(r.containers))
	for _, c := range r.containers {
		out = append(out, c)
	}
	return out
}

// Container is one running container instance.
type Container struct {
	ID         string
	Name       string
	CgroupPath string
	NS         *kernel.NSSet

	mount   *pseudofs.Mount
	base    pseudofs.Policy // creation-time policy, restored by RevertPolicy
	runtime *Runtime
	init    *kernel.Task
	veth    string
	tasks   []*kernel.Task
}

// ApplyPolicy overlays rules ahead of the container's creation-time policy
// by remounting its pseudo-fs view — the live-rollout analogue of passing
// extra rules at Create. First match wins, so the overlay shadows the base
// policy wherever patterns overlap. The new mount is a distinct identity:
// incremental engines treat the container as unseen and re-validate it,
// which is exactly right — its observable surface just changed.
func (c *Container) ApplyPolicy(name string, rules []pseudofs.Rule) {
	p := pseudofs.Policy{
		Name:  name,
		Rules: append(append([]pseudofs.Rule(nil), rules...), c.base.Rules...),
	}
	c.mount = pseudofs.NewMount(c.runtime.fs, c.mount.View(), p)
}

// RevertPolicy restores the creation-time policy (canary rollback). A
// fresh mount is built even if no overlay is active, keeping the
// re-validation semantics identical to ApplyPolicy.
func (c *Container) RevertPolicy() {
	c.mount = pseudofs.NewMount(c.runtime.fs, c.mount.View(), c.base)
}

// ReadFile reads a pseudo-file exactly as a tenant process inside the
// container would: through the container's namespaces and masking policy.
func (c *Container) ReadFile(path string) (string, error) {
	return c.mount.Read(path)
}

// AppendFile is the zero-allocation variant of ReadFile: the content is
// appended to dst (same view, same masking policy). The attacker monitor
// samples the RAPL counter through this path thousands of times per
// campaign without generating garbage (attack.AppendProber).
func (c *Container) AppendFile(dst []byte, path string) ([]byte, error) {
	return c.mount.AppendRead(dst, path)
}

// Mount exposes the container's pseudo-fs mount (the detector drives it
// directly for full-tree walks).
func (c *Container) Mount() *pseudofs.Mount { return c.mount }

// Run starts the given workload profile on n cores inside the container and
// returns the task.
func (c *Container) Run(p workload.Profile, nCores float64) *kernel.Task {
	demand, rates := p.Scaled(nCores)
	t := c.runtime.k.Spawn(p.Name, c.NS, c.CgroupPath, demand, rates)
	t.RSSKB = p.RSSKBPerCore * uint64(nCores+0.5)
	c.tasks = append(c.tasks, t)
	return t
}

// RunPinned starts the workload bound to specific cores (the paper's
// taskset-based covert-channel experiment heats chosen cores this way).
func (c *Container) RunPinned(p workload.Profile, cores []int) *kernel.Task {
	t := c.Run(p, float64(len(cores)))
	t.Pinned = append([]int(nil), cores...)
	return t
}

// Stop terminates one task previously started with Run.
func (c *Container) Stop(t *kernel.Task) {
	c.runtime.k.Exit(t.HostPID)
	for i, x := range c.tasks {
		if x == t {
			c.tasks = append(c.tasks[:i], c.tasks[i+1:]...)
			break
		}
	}
}

// StopAll terminates every workload task (the init task stays).
func (c *Container) StopAll() {
	for _, t := range c.tasks {
		c.runtime.k.Exit(t.HostPID)
	}
	c.tasks = nil
}

// ImplantTimerSignature starts a no-load task with the given unique name
// and an armed timer, making the signature visible in the host-global
// /proc/timer_list (and /proc/sched_debug).
func (c *Container) ImplantTimerSignature(signature string) *kernel.Task {
	t := c.runtime.k.Spawn(signature, c.NS, c.CgroupPath, 0.001, workload.IdleLoop.Rates.Times(0.001))
	t.HasTimer = true
	c.tasks = append(c.tasks, t)
	return t
}

// ImplantLockSignature takes a POSIX lock with an attacker-chosen inode
// number, visible in the global /proc/locks.
func (c *Container) ImplantLockSignature(inode uint64) kernel.FileLock {
	return c.runtime.k.AddFileLock(c.init, "WRITE", inode)
}

// PlantTimer and PlantLock are no-result conveniences satisfying
// coresidence.Implanter.

// PlantTimer implants a timer signature (see ImplantTimerSignature).
func (c *Container) PlantTimer(signature string) { c.ImplantTimerSignature(signature) }

// PlantLock implants a lock signature (see ImplantLockSignature).
func (c *Container) PlantLock(inode uint64) { c.ImplantLockSignature(inode) }

// Tasks returns the container's live workload tasks.
func (c *Container) Tasks() []*kernel.Task { return c.tasks }
