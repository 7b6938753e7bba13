package pseudofs

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/perfcount"
)

func depsWorld(t *testing.T) (*kernel.Kernel, *FS, *Mount) {
	t.Helper()
	k := kernel.New(kernel.Options{Hostname: "dep-host", Seed: 21})
	fs := Build(k, DefaultHardware())
	host := NewMount(fs, HostView(k), Policy{})
	return k, fs, host
}

// TestDepCoverage pins the dependency table to the built tree: every
// registered path must carry an explicit tag. A path falling through to
// the depend-on-everything default would silently re-render on every
// mutation — correct but defeating the incremental engine, and usually a
// sign a new pseudo-file was added without declaring its dependencies.
func TestDepCoverage(t *testing.T) {
	_, fs, host := depsWorld(t)
	for _, p := range host.Paths() {
		d := fs.Dep(p)
		if d.Mask == kernel.MaskAll && !d.Volatile {
			t.Errorf("path %s has no dependency tag (falls through to depend-on-everything)", p)
		}
	}
}

func TestPathEpochMovesWithSubsystem(t *testing.T) {
	k, fs, _ := depsWorld(t)

	static := fs.PathEpoch("/proc/version")
	stat := fs.PathEpoch("/proc/stat")
	boot := fs.PathEpoch("/proc/sys/kernel/random/boot_id")

	k.Tick(k.Now()+1, 1) // bumps sched|mem|net|power, not ns

	if got := fs.PathEpoch("/proc/version"); got != static {
		t.Errorf("/proc/version epoch moved on tick: %d -> %d", static, got)
	}
	if got := fs.PathEpoch("/proc/stat"); got <= stat {
		t.Errorf("/proc/stat epoch did not move on tick: %d -> %d", stat, got)
	}
	if got := fs.PathEpoch("/proc/sys/kernel/random/boot_id"); got != boot {
		t.Errorf("boot_id epoch moved on tick: %d -> %d", boot, got)
	}

	k.NewNSSet("tenant", "/docker/t") // bumps ns
	if got := fs.PathEpoch("/proc/sys/kernel/random/boot_id"); got <= boot {
		t.Errorf("boot_id epoch did not move on namespace creation: %d -> %d", boot, got)
	}
}

// TestPathEpochConservative: a path's content must never change while its
// epoch stands still. Render every path, mutate the kernel through every
// out-of-tick mutation path, and re-render: any path whose bytes changed
// must have a moved epoch. (The converse — epochs moving for unchanged
// bytes — is allowed: tags are conservative.)
func TestPathEpochConservative(t *testing.T) {
	k, fs, host := depsWorld(t)
	k.Tick(5, 1)

	type snap struct {
		content string
		err     bool
		epoch   uint64
	}
	take := func() map[string]snap {
		out := make(map[string]snap)
		for _, p := range host.Paths() {
			if fs.Dep(p).Volatile {
				continue // changes every read by design
			}
			c, err := host.Read(p)
			out[p] = snap{content: c, err: err != nil, epoch: fs.PathEpoch(p)}
		}
		return out
	}

	before := take()
	// Every out-of-tick mutation source, plus a tick.
	ns := k.NewNSSet("tenant-x", "/docker/tx")
	tk := k.Spawn("w", ns, "/docker/tx", 1, perfcount.Rates{})
	k.Cgroup("/docker/tx").QuotaCores = 2
	k.AddHostNetDev("veth-x")
	k.AddFileLock(tk, "WRITE", 7)
	k.Tick(k.Now()+3, 1)
	k.Exit(tk.HostPID)
	k.RemoveHostNetDev("veth-x")
	after := take()

	for p, b := range before {
		a := after[p]
		if a.content != b.content || a.err != b.err {
			if a.epoch == b.epoch {
				t.Errorf("%s: content changed but epoch stayed at %d", p, b.epoch)
			}
		}
	}
}

func TestPathEpochMovesOnReplaceAndProviderSwap(t *testing.T) {
	_, fs, _ := depsWorld(t)

	const path = "/proc/uptime"
	before := fs.PathEpoch(path)
	other := fs.PathEpoch("/proc/stat")
	fs.Replace(path, func(dst []byte, _ View) ([]byte, error) { return append(dst, "0.00 0.00\n"...), nil })
	if got := fs.PathEpoch(path); got <= before {
		t.Errorf("Replace did not move %s epoch: %d -> %d", path, before, got)
	}
	if got := fs.PathEpoch("/proc/stat"); got != other {
		t.Errorf("Replace of %s moved unrelated /proc/stat epoch: %d -> %d", path, other, got)
	}

	// Provider swaps are FS-wide: every path epoch moves.
	before = fs.PathEpoch("/sys/class/powercap/intel-rapl:0/energy_uj")
	static := fs.PathEpoch("/proc/version")
	fs.SetEnergyProvider(fs.EnergyProvider())
	if got := fs.PathEpoch("/sys/class/powercap/intel-rapl:0/energy_uj"); got <= before {
		t.Errorf("SetEnergyProvider did not move energy_uj epoch: %d -> %d", before, got)
	}
	if got := fs.PathEpoch("/proc/version"); got <= static {
		t.Errorf("SetEnergyProvider did not move FS-wide epochs: %d -> %d", static, got)
	}
}

func TestFSEpochAndFaulty(t *testing.T) {
	k, fs, _ := depsWorld(t)
	if fs.Faulty() {
		t.Fatal("fresh FS reports Faulty")
	}
	before := fs.Epoch()
	k.Tick(k.Now()+1, 1)
	if got := fs.Epoch(); got <= before {
		t.Errorf("FS epoch did not move on tick: %d -> %d", before, got)
	}
}
