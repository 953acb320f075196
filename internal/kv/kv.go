// Package kv defines the data model shared by Spinnaker's storage layers
// (paper §3): data is organized into rows identified by a key, each row
// holding any number of columns with values and version numbers. Column
// names and values are opaque bytes.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"

	"spinnaker/internal/wal"
)

// Key addresses one cell: a (row key, column name) pair.
type Key struct {
	Row string
	Col string
}

// Compare orders keys by row, then column.
func (k Key) Compare(o Key) int {
	if c := strings.Compare(k.Row, o.Row); c != 0 {
		return c
	}
	return strings.Compare(k.Col, o.Col)
}

// Less reports whether k sorts before o.
func (k Key) Less(o Key) bool { return k.Compare(o) < 0 }

// String renders the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("%s:%s", k.Row, k.Col) }

// Cell is one versioned column value. Version numbers are monotonically
// increasing integers managed by the datastore and exposed through its get
// API (paper §3); they drive the optimistic concurrency control of
// conditional put/delete. The replication layer sets a cell's version to
// the LSN of the write that produced it. Deleted marks a tombstone.
type Cell struct {
	Value   []byte
	Version uint64
	LSN     wal.LSN
	Deleted bool
}

// Entry pairs a key with its cell, the unit that memtables and SSTables
// store and iterate.
type Entry struct {
	Key  Key
	Cell Cell
}

// Newer reports whether c should supersede o when both describe the same
// key: by LSN — Spinnaker's writes execute in LSN order within a cohort, so
// the LSN decides — and then by version number.
func (c Cell) Newer(o Cell) bool {
	if c.LSN != o.LSN {
		return c.LSN > o.LSN
	}
	return c.Version > o.Version
}

// EncodeEntry serializes an entry, appending to dst:
//
//	u16 rowLen | row | u16 colLen | col |
//	u64 version | u64 lsn | u8 deleted | u32 valueLen | value
func EncodeEntry(dst []byte, e Entry) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Key.Row)))
	dst = append(dst, e.Key.Row...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Key.Col)))
	dst = append(dst, e.Key.Col...)
	dst = binary.LittleEndian.AppendUint64(dst, e.Cell.Version)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Cell.LSN))
	var deleted byte
	if e.Cell.Deleted {
		deleted = 1
	}
	dst = binary.LittleEndian.AppendUint32(append(dst, deleted), uint32(len(e.Cell.Value)))
	return append(dst, e.Cell.Value...)
}

// entryFixedSize is the encoded cell's fixed-width part: version, lsn,
// deleted byte and value length.
const entryFixedSize = 8 + 8 + 1 + 4

// EncodedSize returns the number of bytes EncodeEntry appends for e.
func EncodedSize(e Entry) int {
	return 2 + len(e.Key.Row) + 2 + len(e.Key.Col) + entryFixedSize + len(e.Cell.Value)
}

// EntryView is one encoded entry located in place: every field aliases the
// buffer it was found in, which must not be written while the view (or a
// Cell taken from it) is in use. A point lookup walks encoded entries with
// it, comparing keys without materialising them.
type EntryView struct {
	row, col []byte
	cell     []byte // the fixed-width fields, then the value
}

// ViewEntry locates the entry at the head of b and returns it with the
// bytes it occupies. It makes every length check DecodeEntry makes: ok is
// false exactly when DecodeEntry would return an error.
//
//spinnaker:aliases
//spinnaker:hotpath
func ViewEntry(b []byte) (v EntryView, n int, ok bool) {
	if len(b) < 2 {
		return v, 0, false
	}
	rl := int(binary.LittleEndian.Uint16(b))
	off := 2
	if len(b)-off < rl+2 {
		return v, 0, false
	}
	v.row = b[off : off+rl : off+rl]
	off += rl
	cl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b)-off < cl+entryFixedSize {
		return v, 0, false
	}
	v.col = b[off : off+cl : off+cl]
	off += cl
	vl := binary.LittleEndian.Uint32(b[off+entryFixedSize-4:])
	if uint64(len(b)-off-entryFixedSize) < uint64(vl) {
		return v, 0, false
	}
	end := off + entryFixedSize + int(vl)
	v.cell = b[off:end:end]
	return v, end, true
}

// Compare orders the view's key against k as Key.Compare would.
//
//spinnaker:hotpath
func (v EntryView) Compare(k Key) int {
	if c := compareBytesString(v.row, k.Row); c != 0 {
		return c
	}
	return compareBytesString(v.col, k.Col)
}

// CompareView orders two views' keys as Key.Compare orders keys.
func (v EntryView) CompareView(o EntryView) int {
	if c := bytes.Compare(v.row, o.row); c != 0 {
		return c
	}
	return bytes.Compare(v.col, o.col)
}

// Key returns the view's row and column, aliasing the buffer.
//
//spinnaker:aliases
func (v EntryView) Key() (row, col []byte) { return v.row, v.col }

// compareBytesString is bytes.Compare(b, []byte(s)) written with the
// comparison operators, the form of []byte→string conversion the compiler
// never allocates for.
//
//spinnaker:hotpath
func compareBytesString(b []byte, s string) int {
	switch {
	case string(b) == s:
		return 0
	case string(b) < s:
		return -1
	}
	return 1
}

// Cell decodes the view's cell. Its Value aliases the buffer.
//
//spinnaker:aliases
//spinnaker:hotpath
func (v EntryView) Cell() Cell {
	c := Cell{
		Version: binary.LittleEndian.Uint64(v.cell[0:]),
		LSN:     wal.LSN(binary.LittleEndian.Uint64(v.cell[8:])),
		Deleted: v.cell[16] == 1,
	}
	if len(v.cell) > entryFixedSize {
		c.Value = v.cell[entryFixedSize:]
	}
	return c
}

// DecodeEntry parses one entry from b, returning it and the bytes consumed.
// Nothing in the result aliases b.
func DecodeEntry(b []byte) (Entry, int, error) {
	var e Entry
	off := 0
	need := func(n int) error {
		if len(b)-off < n {
			return fmt.Errorf("kv: entry truncated at offset %d (need %d of %d)", off, n, len(b))
		}
		return nil
	}
	if err := need(2); err != nil {
		return e, 0, err
	}
	rl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if err := need(rl); err != nil {
		return e, 0, err
	}
	e.Key.Row = string(b[off : off+rl])
	off += rl
	if err := need(2); err != nil {
		return e, 0, err
	}
	cl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if err := need(cl); err != nil {
		return e, 0, err
	}
	e.Key.Col = string(b[off : off+cl])
	off += cl
	if err := need(entryFixedSize); err != nil {
		return e, 0, err
	}
	e.Cell.Version = binary.LittleEndian.Uint64(b[off:])
	off += 8
	e.Cell.LSN = wal.LSN(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	e.Cell.Deleted = b[off] == 1
	off++
	vl := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if err := need(vl); err != nil {
		return e, 0, err
	}
	if vl > 0 {
		e.Cell.Value = append([]byte(nil), b[off:off+vl]...)
	}
	off += vl
	return e, off, nil
}
