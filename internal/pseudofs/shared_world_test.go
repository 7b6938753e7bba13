package pseudofs_test

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/defense"
	"repro/internal/pseudofs"
)

// The incremental engine classifies a container's read of a shared
// position (FS.SharedAt) that neither mount masks or rewrites
// (Mount.PlainAt) from the host's read of it, without rendering it in the
// container. The differential below checks that premise on every kind of
// world the engine scans.

// sharedWorld is a one-server datacenter with two tenant containers.
type sharedWorld struct {
	name  string
	dc    *cloud.Datacenter
	fs    *pseudofs.FS
	host  *pseudofs.Mount
	conts []*pseudofs.Mount
}

// buildSharedWorld builds the world, applies fix (if any) to the server's
// FS before any tenant launches, and ticks it to a warm instant.
func buildSharedWorld(t *testing.T, name string, cfg cloud.Config, fix func(*pseudofs.FS)) sharedWorld {
	t.Helper()
	cfg.Racks, cfg.ServersPerRack = 1, 1
	dc := cloud.New(cfg)
	srv := dc.Racks[0].Servers[0]
	if fix != nil {
		fix(srv.FS)
	}
	w := sharedWorld{name: name, dc: dc, fs: srv.FS, host: srv.HostMount()}
	for i := 0; i < 2; i++ {
		_, c, err := dc.Launch("tenant", fmt.Sprintf("probe-%d", i), 1)
		if err != nil {
			t.Fatalf("%s: launch: %v", name, err)
		}
		w.conts = append(w.conts, c.Mount())
	}
	dc.Clock.Run(30, 1)
	return w
}

// sharedMismatches reads every non-volatile position that shared reports
// and both mounts read plain, through host and through cont, and returns
// how many it compared and the paths whose bytes or error differ.
func sharedMismatches(host, cont *pseudofs.Mount, shared func(i int) bool) (compared int, bad []string) {
	fs := host.FS()
	for i, path := range fs.Paths() {
		if fs.DepAt(i).Volatile || !shared(i) || !host.PlainAt(i) || !cont.PlainAt(i) {
			continue
		}
		compared++
		h, errH := host.AppendReadAt(nil, i)
		c, errC := cont.AppendReadAt(nil, i)
		if !bytes.Equal(h, c) || fmt.Sprint(errH) != fmt.Sprint(errC) {
			bad = append(bad, path)
		}
	}
	return compared, bad
}

// check runs the differential on every container of w.
func (w sharedWorld) check(t *testing.T, when string) {
	t.Helper()
	for ci, cont := range w.conts {
		compared, bad := sharedMismatches(w.host, cont, w.fs.SharedAt)
		if compared == 0 {
			t.Errorf("%s %s: container %d shares no position with the host", w.name, when, ci)
		}
		if len(bad) > 0 {
			t.Errorf("%s %s: container %d reads shared positions %v differently from the host", w.name, when, ci, bad)
		}
	}
}

func TestSharedPositionsReadLikeHost(t *testing.T) {
	var worlds []sharedWorld
	profiles := append([]cloud.ProviderProfile{cloud.LocalTestbed(), cloud.LocalLXC()}, cloud.CommercialClouds()...)
	profiles = append(profiles, cloud.RuntimeTargets()...)
	for i, prof := range profiles {
		prof := prof
		worlds = append(worlds, buildSharedWorld(t, prof.Name, cloud.Config{Seed: int64(61 + i), Provider: &prof}, nil))
	}
	worlds = append(worlds,
		buildSharedWorld(t, "power-namespace", cloud.Config{Seed: 81, Defended: true}, nil),
		buildSharedWorld(t, "stage-2/3", cloud.Config{Seed: 82}, func(fs *pseudofs.FS) {
			defense.ApplyNamespaceFixes(fs)
			defense.ApplyStatisticsFixes(fs)
		}),
	)
	for _, w := range worlds {
		w.check(t, "at t=30")
		snap := w.dc.Snapshot()
		w.dc.Clock.Run(60, 1)
		w.check(t, "at t=60")
		w.dc.Restore(snap)
		w.check(t, "after Restore")
	}
}

// TestSharedPositionGuards is the differential's own test: the check
// fails when sharing is claimed for view renders, a Replace handler turns
// sharing off at its position only, and an injector turns it off FS-wide.
func TestSharedPositionGuards(t *testing.T) {
	w := buildSharedWorld(t, "local", cloud.Config{Seed: 90}, nil)
	if _, bad := sharedMismatches(w.host, w.conts[0], func(int) bool { return true }); len(bad) == 0 {
		t.Error("claiming every position shared reported no view-dependent path")
	}

	const path = "/proc/loadavg"
	at := slices.Index(w.fs.Paths(), path)
	if !w.fs.SharedAt(at) {
		t.Fatalf("%s is not shared before Replace", path)
	}
	before := countShared(w.fs)
	w.fs.Replace(path, func(dst []byte, v pseudofs.View) ([]byte, error) {
		return strconv.AppendQuote(dst, v.CgroupPath), nil
	})
	if w.fs.SharedAt(at) {
		t.Errorf("%s is still shared after Replace", path)
	}
	if got := countShared(w.fs); got != before-1 {
		t.Errorf("Replace of one path changed %d shared positions, want 1", before-got)
	}
	if _, bad := sharedMismatches(w.host, w.conts[0], func(i int) bool { return i == at }); len(bad) != 1 {
		t.Errorf("the replaced view-dependent render read alike in host and container: %v", bad)
	}
	w.check(t, "after Replace")

	chaos.Install(w.fs, chaos.Spec{Rate: 0.05, Seed: 1}, "local")
	if n := countShared(w.fs); n != 0 {
		t.Errorf("%d positions still shared with an injector installed", n)
	}
}

func countShared(fs *pseudofs.FS) int {
	n := 0
	for i := range fs.Paths() {
		if fs.SharedAt(i) {
			n++
		}
	}
	return n
}
