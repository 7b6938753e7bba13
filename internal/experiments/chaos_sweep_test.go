package experiments

// Chaos-enabled determinism and degradation tests. The chaos layer's whole
// value is reproducibility: a fault grid that renders differently at -j 1
// and -j 8, or across two runs with one seed, cannot be debugged against.
// These tests are the enforcement arm of that contract, mirroring
// determinism_test.go for the perturbed pipelines.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/chaos"
)

var testSpec = chaos.Spec{Rate: 0.05, Seed: 1}

func TestTable1ChaosDeterministicAcrossWorkerCounts(t *testing.T) {
	diffWorkers(t, "Table1Chaos", func(w int) (string, error) {
		r, err := Table1(context.Background(), testSpec, 0, w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
}

func TestFig8ChaosDeterministicAcrossWorkerCounts(t *testing.T) {
	diffWorkers(t, "Fig8Chaos", func(w int) (string, error) {
		r, err := Fig8(context.Background(), testSpec, w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
}

// TestDiscoveryChaosRepeatable: two chaos-armed discovery sweeps with one
// seed render the same bytes; the second runs on a fresh or restored
// world, so its fault streams must start where the first one's did.
func TestDiscoveryChaosRepeatable(t *testing.T) {
	render := func() string {
		r, err := Discovery(context.Background(), testSpec, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	first := render()
	if again := render(); again != first {
		t.Fatalf("DiscoveryChaos output differs between two runs:\n--- first ---\n%s\n--- second ---\n%s", first, again)
	}
}

// TestFig3ChaosCompletesAndKeepsShape: under a moderate fault rate the
// synergistic campaign must complete, absorb monitor faults without
// aborting, and still at least tie the periodic baseline's peak — the
// paper's attack-economics claim must survive a flaky observation surface.
func TestFig3ChaosCompletesAndKeepsShape(t *testing.T) {
	r, err := Fig3Chaos(chaos.Spec{Rate: 0.02, Seed: 1})
	if err != nil {
		t.Fatalf("Fig3Chaos: %v", err)
	}
	if r.Synergistic.MonitorFaults == 0 {
		t.Error("chaos at 2% injected no monitor faults — the fault path is not exercised")
	}
	if r.Synergistic.PeakW < r.Periodic.PeakW*sweepTieBand {
		t.Errorf("synergistic peak %.0f W below periodic %.0f W under chaos",
			r.Synergistic.PeakW, r.Periodic.PeakW)
	}
}

// TestChaosSweepSmallGrid runs a one-cell grid end to end: deterministic
// across worker counts, no sub-experiment errors, and targets holding at
// the paper-scale 2% rate.
func TestChaosSweepSmallGrid(t *testing.T) {
	rates := []float64{0.02}
	render := func(w int) (string, error) {
		r, err := ChaosSweep(context.Background(), rates, 1, w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}
	serial, err := render(1)
	if err != nil {
		t.Fatalf("ChaosSweep workers=1: %v", err)
	}
	par, err := render(8)
	if err != nil {
		t.Fatalf("ChaosSweep workers=8: %v", err)
	}
	if serial != par {
		t.Fatalf("ChaosSweep differs across worker counts:\n--- 1 ---\n%s\n--- 8 ---\n%s", serial, par)
	}

	r, err := ChaosSweep(context.Background(), rates, 1, 2)
	if err != nil {
		t.Fatalf("ChaosSweep: %v", err)
	}
	if len(r.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(r.Cells))
	}
	c := r.Cells[0]
	if len(c.Errs) != 0 {
		t.Fatalf("cell errors at rate 0.02: %v", c.Errs)
	}
	if !c.Holds() {
		t.Errorf("targets do not hold at rate 0.02: agree=%.3f maxξ=%.4f syn=%.0f per=%.0f",
			c.Table1Agree, c.MaxXi, c.SynPeakW, c.PerPeakW)
	}
	if r.HoldRate != 0.02 {
		t.Errorf("HoldRate = %v, want 0.02", r.HoldRate)
	}
	if !strings.Contains(serial, "hold") {
		t.Errorf("rendered sweep lacks hold status:\n%s", serial)
	}
}

// TestChaosCellFoldsFailures: a sub-experiment error must land in Errs and
// flip Holds, never abort the sweep — graceful degradation is itself a
// tested property.
func TestChaosCellFoldsFailures(t *testing.T) {
	var c ChaosCell
	c.Rate = 0.5
	c.Table1Agree = 1
	c.SynPeakW, c.PerPeakW = 100, 100
	c.MaxXi = 0.01
	if !c.Holds() {
		t.Fatal("healthy cell must hold")
	}
	c.Errs = append(c.Errs, "fig3: boom")
	if c.Holds() {
		t.Fatal("cell with errors must not hold")
	}
}
