// Package red violates both aliascheck contracts: mutating a value
// decoded by a //spinnaker:aliases producer, and retaining a borrowed
// parameter from a //spinnaker:noretain body.
package red

// Msg is a decoded view over a wire buffer.
type Msg struct {
	Key   string
	Value []byte
}

// decodeShared returns a Msg whose Value aliases b.
//
//spinnaker:aliases
func decodeShared(b []byte) (Msg, error) {
	return Msg{Key: "k", Value: b[:len(b):len(b)]}, nil
}

// Mutate writes through a decoded-shared view and appends to a slice
// rooted in it.
func Mutate(b []byte) []byte {
	m, _ := decodeShared(b)
	m.Value[0] = 1   // WANT aliascheck
	v := m.Value     // taint propagates through the rebinding
	v = append(v, 2) // WANT aliascheck
	return v
}

type sink struct{ held []byte }

var global *sink

// Stash borrows p but leaks it twice.
//
//spinnaker:noretain
func Stash(p []byte) []byte {
	s := &sink{}
	s.held = p // WANT aliascheck
	global = s
	return p // WANT aliascheck
}

// Cell is a stored value.
type Cell struct {
	Value   []byte
	Version uint64
}

// Table is an immutable blob of encoded cells.
type Table struct{ blob []byte }

// Get returns a cell whose Value aliases the table's blob — the shape of
// sstable.Table.Get: a method, a (value, ok) result.
//
//spinnaker:aliases
func (t *Table) Get(off int) (Cell, bool) {
	return Cell{Value: t.blob[off:len(t.blob):len(t.blob)]}, true
}

// Scribble stores through a point lookup's result: it would rewrite the
// table under every later reader.
func Scribble(t *Table) Cell {
	c, ok := t.Get(0)
	if ok {
		c.Value[0] = 0xff // WANT aliascheck
	}
	return c
}
