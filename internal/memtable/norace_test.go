//go:build !race

package memtable

const raceEnabled = false
