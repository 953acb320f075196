package sstable

import (
	"fmt"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

// DropAllTombstones is the dropBelow watermark that lets a merge discard
// every tombstone. Only safe when the caller can prove no reader — local
// (an older table outside the merge) or remote (a cohort member whose
// catch-up will replay EntriesSince below the tombstone's LSN) — still
// needs the deletion marker.
const DropAllTombstones = ^wal.LSN(0)

// Compact performs a k-way merge of tables, newest first, and serializes
// the result as a new table blob. For keys present in several inputs the
// newest cell (per kv.Cell.Newer) wins; at equal cell age the newer table
// does.
//
// Tombstones at or below dropBelow are omitted from the output — the
// garbage collection of deleted rows the paper attributes to background
// merges of smaller SSTables into larger ones (§4.1). Dropping is only
// sound if (a) every table older than the merged set participates in the
// merge, else an older table could resurrect the deleted value locally,
// and (b) dropBelow does not exceed the cohort's tombstone-GC watermark —
// the minimum committed LSN across cohort members — else a laggard
// follower's SSTable-based catch-up (§6.1, EntriesSince) would miss the
// delete and resurrect the row remotely. The storage engine enforces both;
// dropBelow = 0 keeps every tombstone.
//
// The merge reads the inputs' encoded entries in place and never decodes
// one: a first pass picks the winners and sums their size, a second copies
// their bytes into a blob allocated once at its final size.
func Compact(tables []*Table, dropBelow wal.LSN) ([]byte, error) {
	// Winners number no more than the inputs' entries: the footers' counts,
	// capped by what the data can hold so a forged count sizes nothing.
	curs, bound := make([]cursor, len(tables)), 0
	for i, t := range tables {
		curs[i] = cursor{t: t}
		if err := curs[i].advance(); err != nil {
			return nil, err
		}
		bound += min(t.count, len(t.data)/kv.EncodedSize(kv.Entry{}))
	}
	var (
		spans   = make([]span, 0, bound)
		size    int
		win     span // the current key's winner so far; end is 0 before the first
		winView kv.EntryView
		winCell kv.Cell
	)
	keep := func() {
		if win.end > 0 && !(dropBelow > 0 && winCell.Deleted && winCell.LSN <= dropBelow) {
			spans = append(spans, win)
			size += win.end - win.off
		}
	}
	for {
		// The input whose next entry has the smallest key, the newest
		// table on a tie.
		best := -1
		for i := range curs {
			if curs[i].n > 0 && (best < 0 || curs[i].v.CompareView(curs[best].v) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := &curs[best]
		v, cell, s := c.v, c.v.Cell(), span{t: best, off: c.off, end: c.off + c.n}
		if err := c.advance(); err != nil {
			return nil, err
		}
		if win.end > 0 && v.CompareView(winView) == 0 {
			if cell.Newer(winCell) {
				win, winView, winCell = s, v, cell
			}
			continue
		}
		keep()
		win, winView, winCell = s, v, cell
	}
	keep()

	w := newWriter(len(spans), size)
	for _, s := range spans {
		raw := curs[s.t].t.data[s.off:s.end]
		v, _, _ := kv.ViewEntry(raw) // viewed once already in the first pass
		off := len(w.data)
		w.data = append(w.data, raw...)
		w.add(off, v.Cell().LSN)
		row, col := v.Key()
		bloomAdd(w.bloom, row, col)
	}
	return w.finish(), nil
}

// cursor walks one input table's encoded entries.
type cursor struct {
	t   *Table
	off int // offset of the current entry in t.data
	n   int // its encoded length; 0 once the table is exhausted
	v   kv.EntryView
}

// advance moves to the next entry. A truncated or forged entry is an error,
// as a full decode of the table would report it.
func (c *cursor) advance() error {
	c.off += c.n
	if c.off >= len(c.t.data) {
		c.n = 0
		return nil
	}
	v, n, ok := kv.ViewEntry(c.t.data[c.off:])
	if !ok {
		return fmt.Errorf("%w: table %d: entry at offset %d truncated", ErrMalformed, c.t.id, c.off)
	}
	c.v, c.n = v, n
	return nil
}

// span locates one winning entry: bytes [off, end) of input t's data.
type span struct{ t, off, end int }
