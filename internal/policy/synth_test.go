package policy

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/pseudofs"
)

// TestPatternEvidenceMatchesPatternScan pins synthesis's matching to the
// per-pattern loops it replaced: for each channel pattern, the leaking
// findings it covers in finding order, and whether any benign read falls
// under it. Matching one pattern at a time is the reference; the glob
// index itself is checked against the linear matcher by pseudofs's
// FuzzGlobIndex. The registry adds a path shared by two channels.
func TestPatternEvidenceMatchesPatternScan(t *testing.T) {
	channels := append(core.MatrixChannels(),
		core.Channel{Name: "shared", Paths: []string{"/proc/stat", "/proc/sys/fs/**", "/proc/meminfo"}})
	for _, p := range []cloud.ProviderProfile{cloud.LocalTestbed(), cloud.CC1(), cloud.CC3()} {
		w, err := newWorld(p, chaos.Spec{}, 0, Options{}.containers())
		if err != nil {
			t.Fatal(err)
		}
		findings := engine.New(w.srv.HostMount()).Validate(w.probe.Mount())
		mined := w.mine(p.Name, DefaultSeed, 1)

		leaksUnder, benignUnder := patternEvidence(channels, findings, mined)
		pi := 0
		for _, ch := range channels {
			for _, pat := range ch.Paths {
				one := pseudofs.CompileGlobs([]string{pat})
				var leaks []core.Finding
				for _, f := range findings {
					if one.First(f.Path) == 0 && leaking(f.Status) {
						leaks = append(leaks, f)
					}
				}
				benign := false
				for path := range mined.Benign {
					benign = benign || one.First(path) == 0
				}
				if !reflect.DeepEqual(leaksUnder[pi], leaks) || benignUnder[pi] != benign {
					t.Errorf("%s %s: evidence %v/%v, pattern scan %v/%v",
						p.Name, pat, leaksUnder[pi], benignUnder[pi], leaks, benign)
				}
				pi++
			}
		}
	}
}
