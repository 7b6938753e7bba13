package defense

import (
	"testing"

	"repro/internal/pseudofs"
	"repro/internal/workload"
)

// TestStage3RendersPinned pins the three stage-3 statistics files, byte for
// byte, for the host view and two container views of a fixed world: a busy
// container with a CPU quota and a memory limit, and an idle one on the
// defaults. The expected bytes were captured from the fmt/strings.Builder
// renderers the append handlers replaced.
func TestStage3RendersPinned(t *testing.T) {
	k, fs, rt := localTestbed(t, 11)
	ApplyStatisticsFixes(fs)
	busy := rt.Create("busy")
	idle := rt.Create("idle")
	busy.Run(workload.Prime, 3)
	k.Cgroup(busy.CgroupPath).QuotaCores = 2.5
	k.Cgroup(busy.CgroupPath).MemLimitKB = 512 * 1024
	k.Tick(20, 1)
	host := pseudofs.NewMount(fs, pseudofs.HostView(k), pseudofs.Policy{})

	views := map[string]func(string) (string, error){
		"host": host.Read,
		"busy": busy.ReadFile,
		"idle": idle.ReadFile,
	}
	cases := []struct{ view, path, want string }{
		{"host", "/proc/stat", "cpu  230 0 15 550 0 2 2 0 0 0\n" +
			"cpu0 28 0 1 68 0 0 0 0 0 0\ncpu1 28 0 1 68 0 0 0 0 0 0\n" +
			"cpu2 28 0 1 68 0 0 0 0 0 0\ncpu3 28 0 1 68 0 0 0 0 0 0\n" +
			"cpu4 28 0 1 68 0 0 0 0 0 0\ncpu5 28 0 1 68 0 0 0 0 0 0\n" +
			"cpu6 28 0 1 68 0 0 0 0 0 0\ncpu7 28 0 1 68 0 0 0 0 0 0\n" +
			"intr 2497\nctxt 2550\nbtime 1478649600\nprocesses 3\nprocs_running 2\nprocs_blocked 0\n"},
		{"busy", "/proc/stat", "cpu  230 0 20 4750 0 0 0 0 0 0\n" +
			"cpu0 76 0 6 1583 0 0 0 0 0 0\ncpu1 76 0 6 1583 0 0 0 0 0 0\ncpu2 76 0 6 1583 0 0 0 0 0 0\n" +
			"intr 3000\nctxt 2250\nbtime 1480291200\nprocesses 4\nprocs_running 1\nprocs_blocked 0\n"},
		{"idle", "/proc/stat", "cpu  0 0 0 16000 0 0 0 0 0 0\n" +
			"cpu0 0 0 0 2000 0 0 0 0 0 0\ncpu1 0 0 0 2000 0 0 0 0 0 0\n" +
			"cpu2 0 0 0 2000 0 0 0 0 0 0\ncpu3 0 0 0 2000 0 0 0 0 0 0\n" +
			"cpu4 0 0 0 2000 0 0 0 0 0 0\ncpu5 0 0 0 2000 0 0 0 0 0 0\n" +
			"cpu6 0 0 0 2000 0 0 0 0 0 0\ncpu7 0 0 0 2000 0 0 0 0 0 0\n" +
			"intr 0\nctxt 0\nbtime 1480291200\nprocesses 3\nprocs_running 1\nprocs_blocked 0\n"},
		{"host", "/proc/meminfo", "MemTotal:       16777216 kB\nMemFree:        12484567 kB\n" +
			"MemAvailable:   14497866 kB\nBuffers:          209715 kB\nCached:          2516624 kB\n" +
			"Active:          2575589 kB\nInactive:        1287794 kB\nSwapTotal:       2097152 kB\n" +
			"SwapFree:        2097152 kB\nDirty:              2250 kB\n"},
		{"busy", "/proc/meminfo", "MemTotal:         524288 kB\nMemFree:          425984 kB\n" +
			"MemAvailable:     425984 kB\nBuffers:               0 kB\nCached:            12288 kB\n" +
			"Active:            58982 kB\nInactive:          29491 kB\nSwapTotal:             0 kB\n" +
			"SwapFree:              0 kB\nDirty:                 0 kB\n"},
		{"idle", "/proc/meminfo", "MemTotal:        4194304 kB\nMemFree:         4194304 kB\n" +
			"MemAvailable:    4194304 kB\nBuffers:               0 kB\nCached:                0 kB\n" +
			"Active:                0 kB\nInactive:              0 kB\nSwapTotal:             0 kB\n" +
			"SwapFree:              0 kB\nDirty:                 0 kB\n"},
		{"host", "/proc/loadavg", "0.04 0.01 0.00 1/123 303\n"},
		{"busy", "/proc/loadavg", "3.00 3.00 3.00 1/2 2\n"},
		{"idle", "/proc/loadavg", "0.00 0.00 0.00 0/1 1\n"},
	}
	for _, c := range cases {
		got, err := views[c.view](c.path)
		if err != nil {
			t.Fatalf("%s %s: %v", c.view, c.path, err)
		}
		if got != c.want {
			t.Errorf("%s %s:\n got %q\nwant %q", c.view, c.path, got, c.want)
		}
	}
}
