package experiments

// Differential determinism tests: every parallelized experiment must
// produce byte-identical rendered output at workers=1 (the serial
// reference loop) and workers=8 (oversubscribed fan-out). This is the
// enforcement arm of ARCHITECTURE.md's concurrency & determinism
// contract — if a future change introduces a shared RNG, an unordered
// reduction, or a racy pseudo-file handler, these tests are the tripwire.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/parallel"
)

// diffWorkers runs render at workers=1 and workers=8 and requires
// byte-identical output.
func diffWorkers(t *testing.T, name string, render func(workers int) (string, error)) {
	t.Helper()
	serial, err := render(1)
	if err != nil {
		t.Fatalf("%s workers=1: %v", name, err)
	}
	if serial == "" {
		t.Fatalf("%s workers=1 rendered empty output", name)
	}
	par, err := render(8)
	if err != nil {
		t.Fatalf("%s workers=8: %v", name, err)
	}
	if par != serial {
		t.Fatalf("%s output differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			name, serial, par)
	}
}

func TestTable1DeterministicAcrossWorkerCounts(t *testing.T) {
	diffWorkers(t, "Table1", func(w int) (string, error) {
		r, err := Table1(context.Background(), chaos.Spec{}, 0, w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
}

func TestFig3SweepDeterministicAcrossWorkerCounts(t *testing.T) {
	diffWorkers(t, "Fig3Sweep", func(w int) (string, error) {
		r, err := Fig3Sweep(context.Background(), 3, w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
}

func TestDiscoveryDeterministicAcrossWorkerCounts(t *testing.T) {
	diffWorkers(t, "Discovery", func(w int) (string, error) {
		r, err := Discovery(context.Background(), chaos.Spec{}, 0, w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
}

func TestCovertSurveyDeterministicAcrossWorkerCounts(t *testing.T) {
	diffWorkers(t, "CovertSurvey", func(w int) (string, error) {
		r, err := CovertSurvey(context.Background(), w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
}

func TestFig8DeterministicAcrossWorkerCounts(t *testing.T) {
	diffWorkers(t, "Fig8", func(w int) (string, error) {
		r, err := Fig8(context.Background(), chaos.Spec{}, w)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	})
}

// TestInspectAllSurvivesProviderFailure is the partial-results contract:
// one broken provider profile must not kill the six-cloud Table I sweep.
func TestInspectAllSurvivesProviderFailure(t *testing.T) {
	profiles := append([]cloud.ProviderProfile{cloud.LocalTestbed()}, cloud.CommercialClouds()...)
	if len(profiles) < 3 {
		t.Fatalf("testbed has %d profiles, want >= 3", len(profiles))
	}
	broken := profiles[2].Name
	boom := errors.New("profile exploded")

	ins, err := inspectProfiles(context.Background(), profiles, 4, func(p cloud.ProviderProfile) (CloudInspection, error) {
		if p.Name == broken {
			return CloudInspection{}, boom
		}
		return InspectProviderSeeded(p, chaos.Spec{}, 0)
	})
	if err != nil {
		t.Fatalf("partial failure must not be fatal: %v", err)
	}
	if len(ins) != len(profiles) {
		t.Fatalf("got %d inspections, want %d", len(ins), len(profiles))
	}
	for i, in := range ins {
		if in.Provider != profiles[i].Name {
			t.Errorf("ins[%d].Provider = %q, want %q (order must be preserved)", i, in.Provider, profiles[i].Name)
		}
		if in.Provider == broken {
			if !errors.Is(in.Err, boom) {
				t.Errorf("broken provider Err = %v, want wrapped boom", in.Err)
			}
			if len(in.Reports) != 0 {
				t.Errorf("broken provider has %d reports, want 0", len(in.Reports))
			}
			continue
		}
		if in.Err != nil || len(in.Reports) == 0 {
			t.Errorf("healthy provider %q: err=%v reports=%d", in.Provider, in.Err, len(in.Reports))
		}
	}

	// The table still renders, marks the failed provider, and reports -1
	// availability for it.
	tbl := &Table1Result{Inspections: ins}
	s := tbl.String()
	if !strings.Contains(s, "✗ "+broken+": inspection failed") {
		t.Errorf("rendered table lacks failure marker for %q:\n%s", broken, s)
	}
	if got := tbl.Available(broken); got != -1 {
		t.Errorf("Available(%q) = %d, want -1", broken, got)
	}
	if got := tbl.Available("local"); got <= 0 {
		t.Errorf("Available(local) = %d, want > 0", got)
	}

	// Diffing against a failed inspection is refused, not garbage.
	if _, err := DiffInspections(ins[2], ins[2]); err == nil {
		t.Error("DiffInspections over a failed inspection must error")
	}
}

// TestInspectAllAllFailed: when every provider fails, the sweep as a whole
// errors (there is no table worth rendering).
func TestInspectAllAllFailed(t *testing.T) {
	profiles := append([]cloud.ProviderProfile{cloud.LocalTestbed()}, cloud.CommercialClouds()...)
	boom := errors.New("fleet down")
	ins, err := inspectProfiles(context.Background(), profiles, 2, func(cloud.ProviderProfile) (CloudInspection, error) {
		return CloudInspection{}, boom
	})
	if err == nil {
		t.Fatal("all-failed sweep must return an error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if len(ins) != len(profiles) {
		t.Fatalf("even on total failure the per-provider slice is returned: got %d", len(ins))
	}
}

// TestInspectAllCapturesProviderPanic: a panicking provider inspection is
// folded into its Err field instead of crashing the sweep.
func TestInspectAllCapturesProviderPanic(t *testing.T) {
	profiles := append([]cloud.ProviderProfile{cloud.LocalTestbed()}, cloud.CommercialClouds()...)
	ins, err := inspectProfiles(context.Background(), profiles, 4, func(p cloud.ProviderProfile) (CloudInspection, error) {
		if p.Name == profiles[1].Name {
			panic("inspector bug")
		}
		return InspectProviderSeeded(p, chaos.Spec{}, 0)
	})
	if err != nil {
		t.Fatalf("one panic must not be fatal: %v", err)
	}
	var pe *parallel.PanicError
	if !errors.As(ins[1].Err, &pe) {
		t.Fatalf("ins[1].Err = %v, want *parallel.PanicError", ins[1].Err)
	}
	if !strings.Contains(pe.Error(), "inspector bug") {
		t.Errorf("panic error %q lacks panic value", pe.Error())
	}
}
