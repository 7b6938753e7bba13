package pseudofs_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/pseudofs"
)

// refRollUp is the channels × findings × patterns RollUp the channel index
// replaced, kept as its oracle.
func refRollUp(channels []core.Channel, findings []core.Finding) []core.ChannelReport {
	reports := make([]core.ChannelReport, 0, len(channels))
	for _, ch := range channels {
		rep := core.ChannelReport{Channel: ch}
		for _, f := range findings {
			for _, pat := range ch.Paths {
				if pseudofs.MatchPattern(pat, f.Path) {
					rep.Files = append(rep.Files, f)
					break
				}
			}
		}
		best := core.Unavailable
		for _, f := range rep.Files {
			switch f.Status {
			case core.Identical:
				best = core.Available
			case core.Partial, core.Volatile:
				if best < core.PartiallyAvailable {
					best = core.PartiallyAvailable
				}
			}
		}
		rep.Availability = best
		reports = append(reports, rep)
	}
	return reports
}

// refDiscover is the linear Discover the channel index replaced.
func refDiscover(channels []core.Channel, findings []core.Finding) []core.Finding {
	known := func(path string) bool {
		for _, ch := range channels {
			for _, pat := range ch.Paths {
				if pseudofs.MatchPattern(pat, path) {
					return true
				}
			}
		}
		return false
	}
	var out []core.Finding
	for _, f := range findings {
		if (f.Status == core.Identical || f.Status == core.Partial) && !known(f.Path) {
			out = append(out, f)
		}
	}
	return out
}

// overlapRegistry is the matrix registry plus channels that share paths
// with it and with each other: an exact path in two channels, an exact
// path twice in one channel, and a glob overlapping an exact path.
func overlapRegistry() []core.Channel {
	return append(core.MatrixChannels(),
		core.Channel{Name: "stat-twice", Paths: []string{"/proc/stat", "/proc/stat"}},
		core.Channel{Name: "stat-and-random", Paths: []string{"/proc/sys/kernel/random/boot_id", "/proc/stat"}},
		core.Channel{Name: "cpu-subtree", Paths: []string{"/sys/devices/system/cpu/**"}},
	)
}

// TestIndexMatchesLinearScanInEveryWorld is the world-level differential
// test of the glob index. For every provider, every runtime target and a
// defended world, each tree path (and a few paths outside the tree) must
// get the dependency tag and the mount policy decision the linear scans
// give, and RollUp and Discover must equal their reference loops, Files
// order included, over the Table I, matrix and overlapping registries.
func TestIndexMatchesLinearScanInEveryWorld(t *testing.T) {
	type world struct {
		name string
		cfg  cloud.Config
		prof cloud.ProviderProfile
	}
	var worlds []world
	for _, p := range append(append([]cloud.ProviderProfile{cloud.LocalTestbed(), cloud.LocalLXC()},
		cloud.CommercialClouds()...), cloud.RuntimeTargets()...) {
		worlds = append(worlds, world{name: p.Name, prof: p})
	}
	worlds = append(worlds, world{name: "defended", prof: cloud.LocalTestbed(), cfg: cloud.Config{Defended: true}})

	registries := map[string][]core.Channel{
		"table1":  core.TableIChannels(),
		"matrix":  core.MatrixChannels(),
		"overlap": overlapRegistry(),
	}
	outside := []string{"", "/", "/proc", "/proc/nope", "/proc/stat/x", "/sys/devices/system/cpu/cpu99/cpufreq/x",
		"/sys/class/powercap/intel-rapl:0/intel-rapl:0:9/energy_uj", "/sys/firmware/acpi"}

	for i, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.cfg
			cfg.Racks, cfg.ServersPerRack, cfg.Seed = 1, 1, int64(100+i)
			cfg.Provider = &w.prof
			dc := cloud.New(cfg)
			srv, c, err := dc.Launch("inspector", "probe", 1)
			if err != nil {
				t.Fatal(err)
			}
			dc.Clock.Run(5, 1)
			host, cont := srv.HostMount(), c.Mount()
			// A mount with a long mixed policy: the stage-1 masks of the
			// world's own leaks (channel patterns, globs included) ahead of
			// the runtime's rules.
			findings := core.CrossValidate(host, cont)
			masks := pseudofs.NewMount(srv.FS, cont.View(), pseudofs.Policy{
				Rules: append(defense.MaskingRules(refRollUp(overlapRegistry(), findings)), cont.MountPolicy().Rules...),
			})

			paths := append(cont.Paths(), outside...)
			for _, path := range paths {
				if got, want := srv.FS.Dep(path), pseudofs.LinearDep(path); got != want {
					t.Errorf("Dep(%q) = %+v, linear scan %+v", path, got, want)
				}
				for _, m := range []*pseudofs.Mount{host, cont, masks} {
					got, gotOK := m.LookupRule(path)
					want, wantOK := pseudofs.LinearLookup(m.MountPolicy(), path)
					if gotOK != wantOK || got.Pattern != want.Pattern || got.Do != want.Do {
						t.Errorf("%s rule for %q = %q/%v (%v), linear scan %q/%v (%v)",
							m.MountPolicy().Name, path, got.Pattern, got.Do, gotOK, want.Pattern, want.Do, wantOK)
					}
				}
			}

			for name, reg := range registries {
				if got, want := core.RollUp(reg, findings), refRollUp(reg, findings); !reflect.DeepEqual(got, want) {
					t.Errorf("%s RollUp differs from the linear loop:\n got %s\nwant %s", name, summarize(got), summarize(want))
				}
				if got, want := core.Discover(reg, findings), refDiscover(reg, findings); !reflect.DeepEqual(got, want) {
					t.Errorf("%s Discover = %v, linear loop %v", name, got, want)
				}
			}
		})
	}
}

func summarize(reports []core.ChannelReport) string {
	s := ""
	for _, r := range reports {
		s += fmt.Sprintf("\n  %s %s %d files", r.Channel.Name, r.Availability, len(r.Files))
	}
	return s
}
