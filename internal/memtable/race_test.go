//go:build race

package memtable

// raceEnabled lets the allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
