// Package green uses the aliasing contracts correctly: copy before
// mutating a shared decode, copy contents instead of retaining a
// borrowed slice.
package green

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

// Copy reads the shared view, then copies before mutating.
func Copy(b []byte) []byte {
	m, _ := decodeShared(b)
	own := append([]byte(nil), m.Value...)
	own[0] = 1
	return own
}

type sink struct{ held []byte }

// Keep copies the borrowed contents into caller-owned storage; the
// spread form copies bytes, not the slice header.
//
//spinnaker:noretain
func Keep(s *sink, p []byte) {
	s.held = append(s.held[:0], p...)
}

// Cell is a stored value.
type Cell struct {
	Value   []byte
	Version uint64
}

// Table is an immutable blob of encoded cells.
type Table struct{ blob []byte }

// Get returns a cell whose Value aliases the table's blob.
//
//spinnaker:aliases
func (t *Table) Get(off int) (Cell, bool) {
	return Cell{Value: t.blob[off:len(t.blob):len(t.blob)]}, true
}

// Respond copies a lookup's value into a reply buffer, the only thing the
// read path does with it.
func Respond(t *Table) []byte {
	c, _ := t.Get(0)
	buf := make([]byte, 8+len(c.Value))
	copy(buf[8:], c.Value)
	return buf
}
