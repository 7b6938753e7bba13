package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/covert"
)

func TestCovertSurveyShape(t *testing.T) {
	r, err := CovertSurvey(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 12 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(sig covert.Signal, h HostHardening) CovertRow {
		for _, row := range r.Rows {
			if row.Signal == sig && row.Hardening == h {
				return row
			}
		}
		t.Fatalf("row %v/%v missing", sig, h)
		return CovertRow{}
	}
	// Stock host: every channel works essentially error-free.
	for _, sig := range []covert.Signal{covert.PowerSignal, covert.UtilSignal, covert.TempSignal} {
		if row := get(sig, StockHost); row.BER > 0.05 {
			t.Errorf("stock %v BER = %.3f", sig, row.BER)
		}
	}
	// Defended host: the power namespace kills the RAPL channel, but
	// utilization and temperature survive (residual risk of VII-A/B).
	if row := get(covert.PowerSignal, DefendedHost); row.BER < 0.25 {
		t.Errorf("defended power channel BER = %.3f — defense ineffective", row.BER)
	}
	if row := get(covert.UtilSignal, DefendedHost); row.BER > 0.05 {
		t.Errorf("utilization channel unexpectedly closed at stage 2: BER %.3f", row.BER)
	}
	// Fully hardened (stage 3): utilization dies too; temperature remains.
	if row := get(covert.UtilSignal, FullyHardenedHost); row.BER < 0.25 {
		t.Errorf("stage-3 utilization channel BER = %.3f — statistics still leak", row.BER)
	}
	if row := get(covert.TempSignal, FullyHardenedHost); row.BER > 0.15 {
		t.Errorf("temperature channel closed early: BER %.3f (stage 3 does not touch coretemp)", row.BER)
	}
	// Thermal namespace: the last channel goes dark.
	if row := get(covert.TempSignal, ThermalHardenedHost); row.BER < 0.25 {
		t.Errorf("thermal namespace ineffective: temperature BER %.3f", row.BER)
	}
	if !strings.Contains(r.String(), "COVERT") {
		t.Fatal("render incomplete")
	}
}
