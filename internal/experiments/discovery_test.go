package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

func TestDiscoveryFindsBeyondRegistryChannels(t *testing.T) {
	r, err := Discovery(context.Background(), chaos.Spec{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]core.FileStatus{}
	for _, f := range r.Findings {
		found[f.Path] = f.Status
	}
	// The detector must surface the global channels we planted beyond
	// Table I, without registry hints.
	for _, want := range []string{
		"/proc/vmstat", "/proc/diskstats", "/proc/buddyinfo",
		"/proc/net/softnet_stat", "/proc/partitions", "/proc/swaps",
	} {
		if found[want] != core.Identical {
			t.Errorf("%s not discovered (status %v)", want, found[want])
		}
	}
	// And it must NOT re-report registry-covered channels.
	for _, covered := range []string{"/proc/uptime", "/proc/meminfo", "/proc/sched_debug"} {
		if _, dup := found[covered]; dup {
			t.Errorf("%s is registry-covered but re-reported", covered)
		}
	}
	if r.TotalLeaking <= len(r.Findings) {
		t.Fatalf("total leaking (%d) should exceed the novel subset (%d)",
			r.TotalLeaking, len(r.Findings))
	}
	if !strings.Contains(r.String(), "DISCOVERY") {
		t.Fatal("render incomplete")
	}
}
