package core

import (
	"reflect"
	"testing"

	"repro/internal/pseudofs"
)

// TestChannelReadsMatchesPatternScan pins Assess's read plan to the loop it
// replaced: for each channel, pattern by pattern, every matching path in
// path order, so a path under two of a channel's patterns is read twice.
// Matching one pattern at a time is the reference; the glob index itself
// is checked against the linear matcher by pseudofs's FuzzGlobIndex.
func TestChannelReadsMatchesPatternScan(t *testing.T) {
	_, _, c := newTestbed(t, 3)
	paths := c.Mount().Paths()
	channels := append(TableIIChannels(),
		Channel{Name: "dup", Paths: []string{"/proc/stat", "/proc/sys/kernel/random/*", "/proc/stat"}},
		Channel{Name: "none", Paths: []string{"/no/such/*"}},
		Channel{Name: "cpu", Paths: []string{"/sys/devices/system/cpu/**", "/sys/devices/system/cpu/cpu*/cpuidle/state*/usage"}},
	)
	got := channelReads(channels, paths)
	for ci, ch := range channels {
		var want []string
		for _, pat := range ch.Paths {
			one := pseudofs.CompileGlobs([]string{pat})
			for _, p := range paths {
				if one.First(p) == 0 {
					want = append(want, p)
				}
			}
		}
		if !reflect.DeepEqual(got[ci], want) {
			t.Errorf("%s reads %q, pattern scan %q", ch.Name, got[ci], want)
		}
	}
}
