//go:build race

package service

// raceEnabled: the race detector makes sync.Pool drop pooled items at
// random, so allocation counts through a pool are not repeatable.
const raceEnabled = true
