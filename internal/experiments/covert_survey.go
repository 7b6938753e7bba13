package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/covert"
	"repro/internal/defense"
	"repro/internal/parallel"
	"repro/internal/powerns"
	"repro/internal/texttable"
)

// HostHardening grades the defense deployed on the covert-channel host.
type HostHardening int

// Hardening levels for the survey.
const (
	StockHost           HostHardening = iota
	DefendedHost                      // stage 2 + power namespace
	FullyHardenedHost                 // + stage-3 statistics namespacing
	ThermalHardenedHost               // + thermal namespace (Section VII-B PoC)
)

// String implements fmt.Stringer.
func (h HostHardening) String() string {
	switch h {
	case DefendedHost:
		return "defended"
	case FullyHardenedHost:
		return "hardened+stats"
	case ThermalHardenedHost:
		return "hardened+thermal"
	default:
		return "stock"
	}
}

// CovertRow is one measured covert-channel configuration.
type CovertRow struct {
	Signal    covert.Signal
	Hardening HostHardening
	BitsSent  int
	BER       float64
	RateBPS   float64
}

// CovertSurveyResult measures the Section III-C covert channels: bit error
// rate and raw throughput for each leaked signal, across hardening levels.
// An extension beyond the paper, which only notes the possibility.
type CovertSurveyResult struct {
	Rows []CovertRow
}

// CovertSurvey runs the measurements over the 4 hardening levels × 3
// signals grid: 12 share-nothing worlds (each measurement builds its own
// single-server datacenter and drives its own clock), fanned out over
// workers with rows kept in grid order and cooperative cancellation
// through ctx.
func CovertSurvey(ctx context.Context, workers int) (*CovertSurveyResult, error) {
	configs := []covert.Config{
		{Signal: covert.PowerSignal, SymbolSeconds: 2, Core: 2, LoadCores: 4},
		{Signal: covert.UtilSignal, SymbolSeconds: 2, Core: 2, LoadCores: 4},
		{Signal: covert.TempSignal, SymbolSeconds: 20, Core: 2, LoadCores: 2},
	}
	type cell struct {
		cfg       covert.Config
		hardening HostHardening
	}
	var grid []cell
	for _, hardening := range []HostHardening{StockHost, DefendedHost, FullyHardenedHost, ThermalHardenedHost} {
		for _, cfg := range configs {
			grid = append(grid, cell{cfg: cfg, hardening: hardening})
		}
	}
	rows, err := parallel.MapCtx(ctx, workers, grid, func(_ context.Context, _ int, c cell) (CovertRow, error) {
		ber, n, err := measureCovert(c.cfg, c.hardening)
		if err != nil {
			return CovertRow{}, fmt.Errorf("experiments: covert %v on %v: %w", c.cfg.Signal, c.hardening, err)
		}
		return CovertRow{
			Signal: c.cfg.Signal, Hardening: c.hardening,
			BitsSent: n, BER: ber, RateBPS: covert.ThroughputBPS(c.cfg),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &CovertSurveyResult{Rows: rows}, nil
}

func measureCovert(cfg covert.Config, hardening HostHardening) (float64, int, error) {
	dc := cloud.New(cloud.Config{
		Racks: 1, ServersPerRack: 1, Seed: 6502,
		Defended: hardening >= DefendedHost,
		Benign:   cloud.BenignConfig{BaseUtil: 0.05, PeakUtil: 0.08, FlashCrowdPerDay: 0.0001},
	})
	srv := dc.Racks[0].Servers[0]
	if hardening >= FullyHardenedHost {
		defense.ApplyStatisticsFixes(srv.FS)
	}
	if hardening >= ThermalHardenedHost {
		powerns.NewThermal(srv.PowerNS).InstallThermal(srv.FS)
	}
	sender := srv.Runtime.Create("sender")
	receiver := srv.Runtime.Create("receiver")
	if srv.PowerNS != nil {
		srv.PowerNS.Register(sender.CgroupPath)
		srv.PowerNS.Register(receiver.CgroupPath)
	}
	link, err := covert.NewLink(cfg, sender, receiver, func() { dc.Clock.Advance(1) })
	if err != nil {
		return 0, 0, err
	}
	const n = 48
	rng := rand.New(rand.NewSource(4811))
	sent := make([]bool, n)
	for i := range sent {
		sent[i] = rng.Intn(2) == 1
	}
	got, err := link.Transmit(sent)
	if err != nil {
		return 0, 0, err
	}
	return covert.BitErrorRate(sent, got), n, nil
}

// String renders the survey.
func (r *CovertSurveyResult) String() string {
	tb := texttable.New("Signal", "Host", "Bits", "BER", "Rate (b/s)")
	for _, row := range r.Rows {
		tb.Row(row.Signal.String(), row.Hardening.String(), fmt.Sprintf("%d", row.BitsSent),
			fmt.Sprintf("%.3f", row.BER), fmt.Sprintf("%.3f", row.RateBPS))
	}
	return "COVERT CHANNELS (extension): cross-container signalling over leaked channels\n" +
		tb.String() +
		"note: the power namespace kills the RAPL channel; stage-3 statistics namespacing\n" +
		"kills the utilization channel; the thermal-namespace PoC (applying the paper's own\n" +
		"modeling trick to the resource Section VII-B calls hard to partition) finally\n" +
		"closes temperature as well.\n"
}
