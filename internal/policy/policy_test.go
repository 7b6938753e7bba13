package policy

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/cloud"
)

// TestGenerateCC1 is the subsystem's end-to-end acceptance check: on the
// CC1 profile the synthesized policy must close at least 90% of the
// leaking Table I channels without breaking a single benign-workload read.
func TestGenerateCC1(t *testing.T) {
	pol, rep, err := Generate(cloud.CC1(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Rules) == 0 {
		t.Fatal("synthesized policy has no rules")
	}
	if rep.LeakingBefore == 0 {
		t.Fatal("CC1 world reports nothing leaking — detector broken")
	}
	if rep.Closure < 0.9 {
		t.Fatalf("closure %.2f < 0.90\n%s", rep.Closure, rep)
	}
	if len(rep.BenignFailures) != 0 {
		t.Fatalf("policy broke benign reads: %v", rep.BenignFailures)
	}
	// The ordering invariant: every empty rule precedes every deny rule,
	// so first-match-wins keeps the benign surface readable under broad
	// deny globs.
	seenDeny := false
	for _, r := range pol.Rules {
		switch r.Action {
		case ActionDeny:
			seenDeny = true
		case ActionEmpty:
			if seenDeny {
				t.Fatalf("empty rule %s ordered after a deny rule", r.Pattern)
			}
		}
		if r.Channel == "" {
			t.Fatalf("rule %s has no channel provenance", r.Pattern)
		}
		if r.Subsystems == "" {
			t.Fatalf("rule %s has no subsystem tag", r.Pattern)
		}
	}
}

// TestGenerateDeterministic: the whole pipeline is a pure function of
// (provider, seed, opts) — policies and reports are byte-identical across
// runs.
func TestGenerateDeterministic(t *testing.T) {
	polA, repA, err := Generate(cloud.CC1(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	polB, repB, err := Generate(cloud.CC1(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	encA, _ := polA.Encode()
	encB, _ := polB.Encode()
	if !bytes.Equal(encA, encB) {
		t.Fatal("synthesized policies differ across runs")
	}
	ja, _ := json.Marshal(repA)
	jb, _ := json.Marshal(repB)
	if !bytes.Equal(ja, jb) {
		t.Fatal("verification reports differ across runs")
	}
}

// TestSynthesisWorkersDeterministic: fanning mining and validation out
// over a worker pool must not change a byte of the synthesized policy.
func TestSynthesisWorkersDeterministic(t *testing.T) {
	serial, err := Synthesize(cloud.CC1(), 0, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := Synthesize(cloud.CC1(), 0, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := serial.Encode()
	b, _ := fanned.Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("policy differs between workers=1 and workers=8")
	}
}

// TestGenerateUnderChaos: the retry budgets in mining and validation ride
// out a transiently faulty observation surface; synthesis still closes
// channels without phantom benign breakage.
func TestGenerateUnderChaos(t *testing.T) {
	_, rep, err := Generate(cloud.CC1(), 0, Options{Chaos: chaos.Spec{Rate: 0.02, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Closure < 0.9 {
		t.Fatalf("closure under chaos %.2f < 0.90\n%s", rep.Closure, rep)
	}
	if len(rep.BenignFailures) != 0 {
		t.Fatalf("chaos run reports benign failures: %v", rep.BenignFailures)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	pol, err := Synthesize(cloud.CC2(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := pol.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, _ := back.Encode()
	if !bytes.Equal(enc, enc2) {
		t.Fatal("policy does not round-trip through JSON")
	}
}

func TestDecodeRejectsBadPolicies(t *testing.T) {
	if _, err := Decode([]byte(`{"provider":"x","seed":1,"rules":[{"pattern":"/proc/stat","action":"explode"}]}`)); err == nil {
		t.Fatal("unknown action accepted")
	}
	if _, err := Decode([]byte(`{"provider":"x","bogus":true,"rules":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Decode([]byte(`{"provider":"x","rules":[{"pattern":"","action":"deny"}]}`)); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := Decode([]byte(`{"provider":"x","rules":[]}` + "\n" + `{"provider":"y","rules":[{"pattern":"/proc/stat","action":"explode"}]}`)); err == nil {
		t.Fatal("second, invalid policy after the first accepted")
	}
}

func TestMineBenign(t *testing.T) {
	tr, err := MineBenign(cloud.CC1(), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Benign) == 0 {
		t.Fatal("mined no benign reads")
	}
	for _, must := range []string{"/proc/cpuinfo", "/proc/meminfo", "/proc/stat"} {
		if !tr.Needs(must) {
			t.Fatalf("benign surface missing %s", must)
		}
	}
	// CC1 masks /proc/sched_debug; that path is not in any benign intent
	// set, so it must not appear as baseline breakage either.
	for _, p := range tr.BaselineBroken {
		if strings.Contains(p, "sched_debug") {
			t.Fatalf("unexpected baseline breakage: %s", p)
		}
	}
}
