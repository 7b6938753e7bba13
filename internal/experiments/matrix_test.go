package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

func TestMatrixSweepByteIdenticalAcrossWorkers(t *testing.T) {
	serial, err := MatrixSweep(context.Background(), chaos.Spec{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel8, err := MatrixSweep(context.Background(), chaos.Spec{}, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel8.String() {
		t.Fatal("matrix sweep must be byte-identical at any worker count")
	}
}

func TestMatrixSandboxColumnsMaskClassicChannelsOnly(t *testing.T) {
	r, err := MatrixSweep(context.Background(), chaos.Spec{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	classic := len(core.TableIChannels())
	freqRow := classic // the frequency channel is the appended last row
	byName := make(map[string][]core.ChannelReport)
	for _, ins := range r.Inspections {
		if ins.Err != nil {
			t.Fatalf("%s: %v", ins.Provider, ins.Err)
		}
		byName[ins.Provider] = ins.Reports
	}

	// gVisor and Kata proxy procfs: every classic channel must be dead
	// (Masked or hardware-Absent roll up to Unavailable), while the
	// passed-through frequency channel stays fully available.
	for _, sandbox := range []string{"gvisor", "kata"} {
		reps, ok := byName[sandbox]
		if !ok {
			t.Fatalf("%s column missing from the matrix", sandbox)
		}
		for i := 0; i < classic; i++ {
			if reps[i].Availability != core.Unavailable {
				t.Errorf("%s: classic channel %s = %s, want ○",
					sandbox, reps[i].Channel.Name, reps[i].Availability)
			}
		}
		if reps[freqRow].Availability != core.Available {
			t.Errorf("%s: frequency channel = %s, want ● (it pierces the sandbox)",
				sandbox, reps[freqRow].Availability)
		}
	}

	// The hardened clouds deny /sys/devices wholesale, so the frequency
	// channel dies there — sandboxing and sysfs-denial close different rows.
	for _, cc := range []string{"cc4", "cc5"} {
		if got := byName[cc][freqRow].Availability; got != core.Unavailable {
			t.Errorf("%s: frequency channel = %s, want ○ (denies /sys/devices)", cc, got)
		}
	}

	// Rootless and podman mask only their slice of the classic channels;
	// plenty must survive (they are not sandboxes).
	for _, rt := range []string{"rootless", "podman"} {
		if n := r.Available(rt); n < 10 {
			t.Errorf("%s: only %d channels available — these runtimes do not proxy procfs", rt, n)
		}
	}
}

func TestMatrixSessionWarmSweepMatchesCold(t *testing.T) {
	cold, err := MatrixSweep(context.Background(), chaos.Spec{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMatrixSession(chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := ms.Sweep(4)
	if first.String() != cold.String() {
		t.Fatal("a session's first sweep must equal the cold sweep")
	}
	warm := ms.Sweep(1)
	if warm.String() != cold.String() {
		t.Fatal("a warm sweep (pure cache hits) must stay byte-identical")
	}
	// Session reuse must actually win: the second sweep is served from the
	// per-target engine caches, not re-validated from scratch.
	for _, s := range ms.sessions {
		if s.EngineStats().FindingHits == 0 {
			t.Fatal("warm sweep re-validated a target instead of hitting the engine cache")
		}
	}
	ms.Advance(3)
	advanced := ms.Sweep(4)
	if advanced.String() == "" {
		t.Fatal("advanced sweep rendered nothing")
	}
}

func TestMatrixNarrowAndAvailable(t *testing.T) {
	r, err := MatrixSweep(context.Background(), chaos.Spec{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := r.Narrow("gvisor", "no-such-target")
	if len(n.Inspections) != 1 || n.Inspections[0].Provider != "gvisor" {
		t.Fatalf("Narrow kept %d columns", len(n.Inspections))
	}
	if !strings.Contains(n.String(), "GVISOR") {
		t.Fatal("narrowed render lost its column header")
	}
	if r.Available("no-such-target") != -1 {
		t.Fatal("unknown targets must report -1")
	}
	if got := r.Available("gvisor"); got != 1 {
		t.Fatalf("gvisor availability = %d, want exactly the frequency channel", got)
	}
}

func TestInspectRuntimeChaosWorkers(t *testing.T) {
	r, err := InspectRuntimeChaosWorkers("kata", chaos.Spec{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Inspections) != 1 || r.Inspections[0].Provider != "kata" {
		t.Fatalf("want one kata column, got %+v", r.Inspections)
	}
	if !strings.Contains(r.String(), "KATA") {
		t.Fatal("render lost the KATA header")
	}
	if _, err := InspectRuntimeChaosWorkers("firecracker", chaos.Spec{}, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown runtime") {
		t.Fatalf("unknown runtime error = %v", err)
	}
}

func TestRuntimeDefenseScoresSandbox(t *testing.T) {
	r, err := RuntimeDefense("gvisor", chaos.Spec{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	closed, pierced, leaking := r.Closed()
	if leaking == 0 || closed == 0 {
		t.Fatalf("degenerate score: closed=%d pierced=%d leaking=%d", closed, pierced, leaking)
	}
	if pierced != 1 {
		t.Fatalf("exactly the frequency channel pierces gVisor, got %d survivors", pierced)
	}
	if closed+pierced != leaking {
		t.Fatal("closed + pierced must cover every leaking channel")
	}
	out := r.String()
	for _, want := range []string{"RUNTIME DEFENSE: gvisor", "DOCKER", "GVISOR", "pierce the sandbox"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if _, err := RuntimeDefense("lxd", chaos.Spec{}, 0, 0); err == nil {
		t.Fatal("unknown runtime must error")
	}
}
