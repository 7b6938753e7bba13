package experiments

import (
	"context"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
	"repro/internal/core"
)

func TestInspectProviderCC1MasksSchedDebug(t *testing.T) {
	ins, err := InspectProviderSeeded(cloud.CC1(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]core.Availability{}
	for _, rep := range ins.Reports {
		got[rep.Channel.Name] = rep.Availability
	}
	if got["/proc/sched_debug"] != core.Unavailable {
		t.Fatalf("CC1 sched_debug = %v, want ○", got["/proc/sched_debug"])
	}
	if got["/proc/timer_list"] != core.Available {
		t.Fatalf("CC1 timer_list = %v, want ●", got["/proc/timer_list"])
	}
}

func TestInspectProviderCC4NoRAPL(t *testing.T) {
	ins, err := InspectProviderSeeded(cloud.CC4(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range ins.Reports {
		switch rep.Channel.Name {
		case "/sys/class/*", "/sys/devices/*":
			if rep.Availability != core.Unavailable {
				t.Errorf("CC4 %s = %v, want ○", rep.Channel.Name, rep.Availability)
			}
		case "/proc/version":
			if rep.Availability != core.Available {
				t.Errorf("CC4 version = %v, want ●", rep.Availability)
			}
		}
	}
}

func TestInspectProviderCC5Partial(t *testing.T) {
	ins, err := InspectProviderSeeded(cloud.CC5(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]core.Availability{}
	for _, rep := range ins.Reports {
		got[rep.Channel.Name] = rep.Availability
	}
	if got["/proc/meminfo"] != core.PartiallyAvailable {
		t.Fatalf("CC5 meminfo = %v, want ◐", got["/proc/meminfo"])
	}
	if got["/proc/stat"] != core.PartiallyAvailable {
		t.Fatalf("CC5 stat = %v, want ◐", got["/proc/stat"])
	}
	if got["/proc/uptime"] != core.Unavailable {
		t.Fatalf("CC5 uptime = %v, want ○", got["/proc/uptime"])
	}
	if got["/proc/modules"] != core.Available {
		t.Fatalf("CC5 modules = %v, want ●", got["/proc/modules"])
	}
}

func TestInspectAllCoversSixEnvironments(t *testing.T) {
	t1, err := Table1(context.Background(), chaos.Spec{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := t1.Inspections
	if len(all) != 6 { // local + CC1..CC5
		t.Fatalf("inspections = %d", len(all))
	}
	// The local testbed must leak strictly more channels than CC5.
	count := func(ins CloudInspection) int {
		n := 0
		for _, rep := range ins.Reports {
			if rep.Availability == core.Available {
				n++
			}
		}
		return n
	}
	if count(all[0]) <= count(all[5]) {
		t.Fatalf("local (%d ●) should leak more than cc5 (%d ●)", count(all[0]), count(all[5]))
	}
}

func TestDiffInspectionsDetectsPostureChange(t *testing.T) {
	before, err := InspectProviderSeeded(cloud.LocalTestbed(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := InspectProviderSeeded(cloud.CC1(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	changes, err := DiffInspections(before, after)
	if err != nil {
		t.Fatal(err)
	}
	// CC1 = local + sched_debug masked: exactly one posture change.
	if len(changes) != 1 || changes[0].Channel != "/proc/sched_debug" {
		t.Fatalf("changes = %+v", changes)
	}
	if changes[0].From != core.Available || changes[0].To != core.Unavailable {
		t.Fatalf("direction wrong: %+v", changes[0])
	}
	// Identity diff is empty.
	same, err := DiffInspections(before, before)
	if err != nil || len(same) != 0 {
		t.Fatalf("self-diff = %v err=%v", same, err)
	}
	// Mismatched shapes error.
	short := before
	short.Reports = short.Reports[:5]
	if _, err := DiffInspections(short, after); err == nil {
		t.Fatal("shape mismatch should error")
	}
}
