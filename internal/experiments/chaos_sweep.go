package experiments

import (
	"context"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/parallel"
	"repro/internal/texttable"
)

// Shape targets a fault rate must preserve to count as "held": the Table I
// availability matrix agrees with the clean baseline on at least this
// fraction of cells, the synergistic attack still matches or beats the
// periodic baseline's peak (within a 0.5% tie band), and the defense's
// modeling error stays under the paper's 5% bound.
const (
	sweepAgreeFloor = 0.90
	sweepXiCeil     = 0.05
	sweepTieBand    = 0.995
)

// ChaosCell is one fault rate's measurement across the three pipelines:
// detector (Table I agreement with the clean baseline), attack (synergistic
// vs periodic peak under faulty monitors), and defense (max ξ with faulty
// training and calibration counters).
type ChaosCell struct {
	Rate float64

	// Table1Agree is the fraction of Table I availability cells identical
	// to the chaos-free baseline. Providers whose inspection failed under
	// chaos count every cell as disagreement.
	Table1Agree float64

	// SynPeakW/PerPeakW are the Fig. 3 rack peaks; MonitorFaults counts
	// Sample errors the synergistic campaign absorbed by holding the last
	// good reading.
	SynPeakW, PerPeakW float64
	MonitorFaults      int

	// MaxXi is the Fig. 8 worst-case modeling error under perturbed
	// training and calibration streams.
	MaxXi float64

	// Errs records sub-experiment failures (captured, never fatal: the
	// sweep's job is to chart degradation, not to die of it).
	Errs []string
}

// Holds reports whether every shape target survived at this rate.
func (c *ChaosCell) Holds() bool {
	return len(c.Errs) == 0 &&
		c.Table1Agree >= sweepAgreeFloor &&
		c.MaxXi < sweepXiCeil &&
		c.SynPeakW >= c.PerPeakW*sweepTieBand
}

// ChaosSweepResult is the fault-rate grid.
type ChaosSweepResult struct {
	Seed  int64
	Cells []ChaosCell
	// HoldRate is the highest rate in the contiguous prefix of the grid at
	// which every shape target holds (0 when even the lowest rate breaks
	// something).
	HoldRate float64
}

// DefaultChaosRates is the standard sweep grid.
func DefaultChaosRates() []float64 { return []float64{0.01, 0.02, 0.05, 0.10, 0.20} }

// ChaosSweep measures how the paper's three pipelines degrade as the fault
// rate rises: each cell re-runs Table I, Fig. 3, and Fig. 8 under
// deterministic fault injection at that rate and checks the shape targets
// against a chaos-free baseline. Cells are share-nothing (every experiment
// builds its own worlds, and fault streams are salted per host/path), so
// they fan out across workers with byte-identical results at any count.
// Each cell re-runs three full pipelines, so this is the longest sweep in
// the repository; cancelling ctx abandons the not-yet-dispatched rates.
func ChaosSweep(ctx context.Context, rates []float64, seed int64, workers int) (*ChaosSweepResult, error) {
	if len(rates) == 0 {
		rates = DefaultChaosRates()
	}
	base, err := Table1(ctx, chaos.Spec{}, 0, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos sweep baseline: %w", err)
	}
	cells, err := parallel.MapCtx(ctx, workers, rates, func(_ context.Context, _ int, rate float64) (ChaosCell, error) {
		return chaosCell(chaos.Spec{Rate: rate, Seed: seed}, base), nil
	})
	if err != nil {
		return nil, err
	}
	res := &ChaosSweepResult{Seed: seed, Cells: cells}
	// Ordered reduction over the rate grid: HoldRate is a prefix property.
	for i := range cells {
		if !cells[i].Holds() {
			break
		}
		res.HoldRate = cells[i].Rate
	}
	return res, nil
}

// chaosCell runs one rate's three sub-experiments, folding failures into
// the cell instead of aborting the sweep. Inner experiments run single-
// worker; the sweep parallelizes across cells.
func chaosCell(spec chaos.Spec, base *Table1Result) ChaosCell {
	cell := ChaosCell{Rate: spec.Rate}

	if t1, err := Table1(context.Background(), spec, 0, 1); err != nil {
		cell.Errs = append(cell.Errs, fmt.Sprintf("table1: %v", err))
	} else {
		cell.Table1Agree = table1Agreement(base, t1)
	}

	if f3, err := Fig3Chaos(spec); err != nil {
		cell.Errs = append(cell.Errs, fmt.Sprintf("fig3: %v", err))
	} else {
		cell.SynPeakW = f3.Synergistic.PeakW
		cell.PerPeakW = f3.Periodic.PeakW
		cell.MonitorFaults = f3.Synergistic.MonitorFaults
	}

	if f8, err := Fig8(context.Background(), spec, 1); err != nil {
		cell.Errs = append(cell.Errs, fmt.Sprintf("fig8: %v", err))
	} else {
		cell.MaxXi = f8.MaxXi
	}
	return cell
}

// table1Agreement is the fraction of availability cells on which two Table I
// runs agree. A provider that failed in either run contributes total
// disagreement for its column — a crashed inspection is the worst outcome.
func table1Agreement(base, got *Table1Result) float64 {
	total, match := 0, 0
	for i, b := range base.Inspections {
		if i >= len(got.Inspections) {
			total += len(b.Reports)
			continue
		}
		g := got.Inspections[i]
		if b.Err != nil || g.Err != nil || len(b.Reports) != len(g.Reports) {
			total += len(b.Reports)
			continue
		}
		for j := range b.Reports {
			total++
			if g.Reports[j].Availability == b.Reports[j].Availability {
				match++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(match) / float64(total)
}

// String renders the degradation grid.
func (r *ChaosSweepResult) String() string {
	tb := texttable.New("Fault rate", "Table I agree", "Syn peak W", "Per peak W", "Mon faults", "max ξ", "Targets")
	for i := range r.Cells {
		c := &r.Cells[i]
		status := "hold"
		if !c.Holds() {
			status = "degraded"
		}
		if len(c.Errs) > 0 {
			status = "✗"
		}
		tb.Row(fmt.Sprintf("%.2f", c.Rate),
			fmt.Sprintf("%.1f%%", c.Table1Agree*100),
			fmt.Sprintf("%.0f", c.SynPeakW),
			fmt.Sprintf("%.0f", c.PerPeakW),
			fmt.Sprintf("%d", c.MonitorFaults),
			fmt.Sprintf("%.4f", c.MaxXi),
			status)
	}
	s := fmt.Sprintf(
		"CHAOS SWEEP (seed %d): detector / attack / defense under injected faults\n"+
			"  targets: Table I agreement ≥ %.0f%%, synergistic ≥ periodic peak, max ξ < %.2f\n%s"+
			"  all targets hold up to fault rate %.2f; degradation beyond is graceful (no aborts)\n",
		r.Seed, sweepAgreeFloor*100, sweepXiCeil, tb.String(), r.HoldRate)
	for i := range r.Cells {
		for _, e := range r.Cells[i].Errs {
			s += fmt.Sprintf("  ✗ rate %.2f: %s\n", r.Cells[i].Rate, e)
		}
	}
	return s
}
