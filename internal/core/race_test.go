//go:build race

package core

// raceEnabled lets the allocation-count tests that involve sync.Pool skip
// themselves under the race detector, which drops pooled items at random.
const raceEnabled = true
