package engine_test

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/pseudofs"
)

// The engine classifies a non-volatile path from one container read
// instead of core's three-read quorum. That is exact only if renders are
// pure on a fault-free FS at a paused instant: two back-to-back reads of
// any path not tagged pseudofs.Dep.Volatile return the same bytes and the
// same error class. The guard below checks this on every kind of world the
// engine scans.

// purityTarget is one world to guard: a host mount and a tenant mount.
type purityTarget struct {
	name       string
	host, cont *pseudofs.Mount
}

// buildPurityTarget builds a one-server datacenter, launches one tenant,
// applies any extra policy rules to it, and ticks to a warm instant.
func buildPurityTarget(t *testing.T, name string, cfg cloud.Config, rules []pseudofs.Rule) purityTarget {
	t.Helper()
	cfg.Racks, cfg.ServersPerRack = 1, 1
	dc := cloud.New(cfg)
	srv, c, err := dc.Launch("tenant", "probe", 1)
	if err != nil {
		t.Fatalf("%s: launch: %v", name, err)
	}
	if len(rules) > 0 {
		c.ApplyPolicy("purity-guard", rules)
	}
	dc.Clock.Run(30, 1)
	return purityTarget{name: name, host: srv.HostMount(), cont: c.Mount()}
}

// errClass buckets a read error the way the cross-validation classifier
// distinguishes them.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, pseudofs.ErrDenied):
		return "denied"
	case errors.Is(err, pseudofs.ErrNotExist):
		return "absent"
	case errors.Is(err, pseudofs.ErrTransient):
		return "transient"
	default:
		return "error"
	}
}

// impurePaths reads every non-volatile path of m twice back to back and
// returns the paths whose two reads differ in bytes or error class.
func impurePaths(m *pseudofs.Mount) []string {
	var out []string
	for _, p := range m.Paths() {
		if m.FS().Dep(p).Volatile {
			continue
		}
		a, errA := m.Read(p)
		b, errB := m.Read(p)
		if a != b || errClass(errA) != errClass(errB) {
			out = append(out, p)
		}
	}
	return out
}

func TestRendersArePureUnlessVolatile(t *testing.T) {
	var targets []purityTarget
	profiles := append([]cloud.ProviderProfile{cloud.LocalTestbed(), cloud.LocalLXC()}, cloud.CommercialClouds()...)
	profiles = append(profiles, cloud.RuntimeTargets()...)
	for i, prof := range profiles {
		prof := prof
		targets = append(targets, buildPurityTarget(t, prof.Name, cloud.Config{Seed: int64(11 + i), Provider: &prof}, nil))
	}
	targets = append(targets,
		buildPurityTarget(t, "defended", cloud.Config{Seed: 31, Defended: true}, nil),
		buildPurityTarget(t, "policy", cloud.Config{Seed: 32}, []pseudofs.Rule{
			{Pattern: "/proc/timer_list", Do: pseudofs.Deny},
			{Pattern: "/proc/sched_debug", Do: pseudofs.Empty},
			{Pattern: "/proc/meminfo", Do: pseudofs.Filter, Transform: func(s string) string { return s[:len(s)/2] }},
			{Pattern: "/sys/class/powercap/**", Do: pseudofs.Deny},
		}),
	)
	for _, tg := range targets {
		for _, side := range []struct {
			ctx string
			m   *pseudofs.Mount
		}{{"host", tg.host}, {"container", tg.cont}} {
			if bad := impurePaths(side.m); len(bad) > 0 {
				t.Errorf("%s (%s): back-to-back reads differ on non-volatile paths %v", tg.name, side.ctx, bad)
			}
		}
	}
}

// TestPurityGuardCatchesImpureHandler is the guard's own test: a handler
// that counts its calls must be reported in both contexts.
func TestPurityGuardCatchesImpureHandler(t *testing.T) {
	tg := buildPurityTarget(t, "local", cloud.Config{Seed: 40}, nil)
	const path = "/proc/loadavg"
	var calls atomic.Int64
	tg.host.FS().Replace(path, func(dst []byte, _ pseudofs.View) ([]byte, error) {
		return strconv.AppendInt(dst, calls.Add(1), 10), nil
	})
	for _, m := range []*pseudofs.Mount{tg.host, tg.cont} {
		bad := impurePaths(m)
		if len(bad) != 1 || bad[0] != path {
			t.Errorf("guard reported %v, want exactly [%s]", bad, path)
		}
	}
}
