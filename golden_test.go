package repro

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/experiments"
)

// Golden renderings of the CLI entry points. Each case renders one
// experiment exactly as its CLI prints it (Fprintln or Fprint, newline
// included) and compares the bytes with testdata/golden/<file>.txt, at
// every worker count listed. `go test . -run TestGolden -update` rewrites
// the files from the workers=1 rendering; nothing else writes them.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current renderings")

// cliSpec is the chaos spec every CLI passes when -chaos is not given
// (-chaosseed defaults to 1).
var cliSpec = chaos.Spec{Rate: 0, Seed: 1}

type goldenCase struct {
	name    string // subtest name
	file    string // golden file under testdata/golden, without .txt
	workers []int
	render  func(workers int) (string, error)
}

// bothWorkers is the default worker grid; renderings slower than 1 s run
// at workers 1 only (determinism_test.go and chaos_sweep_test.go pin
// their workers=1 ≡ workers=8 identity), and Fig. 3 takes no worker count.
var (
	bothWorkers = []int{1, 8}
	oneWorker   = []int{1}
)

// sprintln renders v the way fmt.Fprintln prints it; sprint the way
// fmt.Fprint does.
func sprintln(v any, err error) (string, error) { return fmt.Sprintln(v), err }
func sprint(v any, err error) (string, error)   { return fmt.Sprint(v), err }

func goldenCases() []goldenCase {
	ctx := context.Background()
	fig3 := func(rate float64) func(int) (string, error) {
		return func(int) (string, error) {
			return sprint(experiments.Fig3Chaos(chaos.Spec{Rate: rate, Seed: 1}))
		}
	}
	fig8 := func(rate float64) func(int) (string, error) {
		return func(w int) (string, error) {
			return sprintln(experiments.Fig8(ctx, chaos.Spec{Rate: rate, Seed: 1}, w))
		}
	}
	return []goldenCase{
		// The zero Spec and the CLI's rate-0 default must both render the
		// chaos-free table: chaos off is a no-op.
		{"leakscan-table1/zero-spec", "leakscan-table1", bothWorkers, func(w int) (string, error) {
			return sprintln(experiments.Table1(ctx, chaos.Spec{}, 0, w))
		}},
		{"leakscan-table1/cli-spec", "leakscan-table1", bothWorkers, func(w int) (string, error) {
			return sprintln(experiments.Table1(ctx, cliSpec, 0, w))
		}},
		{"leakscan-discover", "leakscan-discover", bothWorkers, func(w int) (string, error) {
			return sprintln(experiments.Discovery(ctx, cliSpec, 0, w))
		}},
		{"leakscan-matrix", "leakscan-matrix", bothWorkers, func(w int) (string, error) {
			return sprintln(experiments.MatrixSweep(ctx, cliSpec, 0, w))
		}},
		{"leakscan-runtime-gvisor", "leakscan-runtime-gvisor", bothWorkers, func(w int) (string, error) {
			return sprintln(experiments.InspectRuntimeChaosWorkers("gvisor", cliSpec, w))
		}},
		{"leakscan-fleet-16", "leakscan-fleet-16", bothWorkers, func(w int) (string, error) {
			return sprintln(experiments.FleetScanSeeded(ctx, cliSpec, 0, 16, w))
		}},
		{"powersim-fig3", "powersim-fig3", oneWorker, fig3(0)},
		{"powersim-fig3-chaos", "powersim-fig3-chaos", oneWorker, fig3(0.02)},
		{"powersim-fig3sweep-3", "powersim-fig3sweep-3", oneWorker, func(w int) (string, error) {
			return sprint(experiments.Fig3Sweep(ctx, 3, w))
		}},
		{"defensebench-fig8", "defensebench-fig8", bothWorkers, fig8(0)},
		{"defensebench-fig8-chaos", "defensebench-fig8-chaos", bothWorkers, fig8(0.02)},
		{"defensebench-runtime-gvisor", "defensebench-runtime-gvisor", bothWorkers, func(w int) (string, error) {
			return sprintln(experiments.RuntimeDefense("gvisor", chaos.Spec{}, 0, w))
		}},
		{"defensebench-ablations", "defensebench-ablations", oneWorker, renderAblations},
		{"defensebench-chaossweep", "defensebench-chaossweep", oneWorker, func(w int) (string, error) {
			return sprintln(experiments.ChaosSweep(ctx, nil, 1, w))
		}},
	}
}

// renderAblations prints `defensebench -ablations`, block for block.
func renderAblations(w int) (string, error) {
	var b strings.Builder
	steps := []func() (string, error){
		func() (string, error) { return sprintln(experiments.CovertSurvey(context.Background(), w)) },
		func() (string, error) { return sprintln(experiments.DefendedAttack()) },
		func() (string, error) { return sprintln(experiments.Detection()) },
		func() (string, error) { return sprintln(experiments.PowerBilling()) },
		func() (string, error) { return sprintln(experiments.AblationCalibration(w)) },
		func() (string, error) { return sprintln(experiments.AblationModelFeatures()) },
		func() (string, error) {
			sc, err := experiments.AblationStrategyCost(w)
			return sprintln(experiments.RenderStrategyCost(sc), err)
		},
		func() (string, error) {
			points, err := experiments.AblationCrestThreshold(w)
			return sprintln(experiments.RenderCrestSweep(points), err)
		},
		func() (string, error) {
			stages, err := experiments.AblationDefenseStages()
			return sprintln(experiments.RenderStages(stages), err)
		},
	}
	for _, step := range steps {
		s, err := step()
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func TestGoldenRenderings(t *testing.T) {
	written := map[string]bool{}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", c.file+".txt")
			for _, w := range c.workers {
				got, err := c.render(w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if *updateGolden && !written[path] {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					written[path] = true
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with `go test . -run TestGolden -update`)", err)
				}
				if got != string(want) {
					t.Errorf("workers=%d: rendering differs from %s\n%s", w, path, firstDiff(string(want), got))
				}
			}
		})
	}
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(same lines, different bytes)"
}
