// Package sstable implements the immutable on-disk tables that memtables
// are flushed to (paper §4.1, following Bigtable's design): sorted by key
// and column for efficient access, indexed, and tagged with the min and max
// LSN of the writes they contain so the replication layer can serve
// catch-up requests from SSTables when the log has been rolled over
// (paper §6.1). Each table additionally carries a bloom filter over its
// cell keys and exposes its min/max key, so the storage engine can prune
// point lookups to the tables that can actually hold the key instead of
// probing every table in the LSM.
package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

const (
	magic        = 0x55AB1E01 // "SSTABLE", format 1 (the pre-bloom format 0 is no longer opened)
	footerSize   = 8 + 8 + 4 + 4 + 4 + 4 + 4 + 4
	indexEvery   = 16 // sparse index: one entry per indexEvery records
	formatErrMsg = "sstable: malformed table"
)

// ErrMalformed is returned when a table blob fails validation.
var ErrMalformed = errors.New(formatErrMsg)

// Table is an immutable sorted run of entries, fully resident as one blob.
type Table struct {
	id     uint64
	blob   []byte // the full serialized form, as stored and as shipped
	data   []byte
	index  []indexEnt
	bloom  []byte
	count  int
	minLSN wal.LSN
	maxLSN wal.LSN
	minKey kv.Key
	maxKey kv.Key
}

type indexEnt struct {
	key kv.Key
	off uint32
}

// Builder accumulates entries in any order and serializes them as a table.
type Builder struct {
	entries []kv.Entry
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Add appends an entry. Entries may be added in any order; Finish sorts
// them. Duplicate keys keep the newest cell.
func (b *Builder) Add(e kv.Entry) { b.entries = append(b.entries, e) }

// Len returns the number of entries added so far.
func (b *Builder) Len() int { return len(b.entries) }

// Finish serializes the accumulated entries into a table blob:
// entries | sparse index | bloom filter | footer.
func (b *Builder) Finish() []byte {
	sort.SliceStable(b.entries, func(i, j int) bool {
		return b.entries[i].Key.Less(b.entries[j].Key)
	})
	// Collapse duplicates, newest wins.
	dedup := b.entries[:0]
	for _, e := range b.entries {
		if n := len(dedup); n > 0 && dedup[n-1].Key.Compare(e.Key) == 0 {
			if e.Cell.Newer(dedup[n-1].Cell) {
				dedup[n-1] = e
			}
			continue
		}
		dedup = append(dedup, e)
	}
	b.entries = dedup
	return WriteSorted(func(fn func(kv.Entry) bool) {
		for _, e := range b.entries {
			if !fn(e) {
				return
			}
		}
	})
}

// WriteSorted serializes the entries ascend yields — in strictly increasing
// key order, as a memtable's Ascend yields them — into a table blob. It
// calls ascend twice, once to size the table and once to fill it, so the
// blob is one allocation of exactly its final size; both calls must yield
// the same entries.
func WriteSorted(ascend func(fn func(kv.Entry) bool)) []byte {
	n, size := 0, 0
	ascend(func(e kv.Entry) bool {
		n, size = n+1, size+kv.EncodedSize(e)
		return true
	})
	w := newWriter(n, size)
	ascend(func(e kv.Entry) bool {
		off := len(w.data)
		w.data = kv.EncodeEntry(w.data, e)
		w.add(off, e.Cell.LSN)
		bloomAdd(w.bloom, e.Key.Row, e.Key.Col)
		return true
	})
	return w.finish()
}

// writer lays a table out in place — data | sparse index | bloom filter |
// footer — in one allocation sized from the entry count and the encoded
// size of the data, both known before the first entry is written.
type writer struct {
	blob  []byte // the whole table
	data  []byte // blob's data section, appended to in key order
	index []byte
	bloom []byte
	count int // entries the table was sized for
	n     int // entries added

	minLSN, maxLSN wal.LSN
}

func newWriter(count, dataBytes int) writer {
	indexBytes := (count + indexEvery - 1) / indexEvery * 4
	bloomBytes := (count*bloomBitsPerKey + 7) / 8 // none for an empty table
	blob := make([]byte, dataBytes+indexBytes+bloomBytes+footerSize)
	bloomOff := dataBytes + indexBytes
	return writer{
		blob:  blob,
		data:  blob[:0:dataBytes], // an entry past the stated size reallocates, and finish refuses it
		index: blob[dataBytes:bloomOff],
		bloom: blob[bloomOff : len(blob)-footerSize],
		count: count,
	}
}

// add records the entry just appended to data at off: its sparse-index
// slot and its LSN. The caller sets its bloom bits.
func (w *writer) add(off int, lsn wal.LSN) {
	if w.n%indexEvery == 0 {
		binary.LittleEndian.PutUint32(w.index[w.n/indexEvery*4:], uint32(off))
	}
	w.n++
	if !lsn.IsZero() {
		if w.minLSN.IsZero() || lsn < w.minLSN {
			w.minLSN = lsn
		}
		w.maxLSN = max(w.maxLSN, lsn)
	}
}

// finish writes the footer and returns the table. The sizes were computed
// by this package from the entries it was then handed, so a mismatch is a
// bug, not bad input.
func (w *writer) finish() []byte {
	indexOff := len(w.blob) - footerSize - len(w.bloom) - len(w.index)
	if w.n != w.count || len(w.data) != indexOff {
		panic(fmt.Sprintf("sstable: table sized for %d entries in %d bytes got %d in %d", w.count, indexOff, w.n, len(w.data)))
	}
	footer := w.blob[len(w.blob)-footerSize:]
	binary.LittleEndian.PutUint64(footer[0:8], uint64(w.minLSN))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(w.maxLSN))
	binary.LittleEndian.PutUint32(footer[16:20], uint32(w.n))
	binary.LittleEndian.PutUint32(footer[20:24], uint32(indexOff))
	binary.LittleEndian.PutUint32(footer[24:28], uint32(len(w.index)/4))
	binary.LittleEndian.PutUint32(footer[28:32], uint32(indexOff+len(w.index)))
	binary.LittleEndian.PutUint32(footer[32:36], uint32(len(w.bloom)))
	binary.LittleEndian.PutUint32(footer[36:40], magic)
	return w.blob
}

// Open parses a table blob produced by Builder.Finish.
func Open(id uint64, blob []byte) (*Table, error) {
	if len(blob) < footerSize {
		return nil, fmt.Errorf("%w: too short", ErrMalformed)
	}
	footer := blob[len(blob)-footerSize:]
	if binary.LittleEndian.Uint32(footer[36:40]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	t := &Table{id: id, blob: blob}
	t.minLSN = wal.LSN(binary.LittleEndian.Uint64(footer[0:8]))
	t.maxLSN = wal.LSN(binary.LittleEndian.Uint64(footer[8:16]))
	t.count = int(binary.LittleEndian.Uint32(footer[16:20]))
	body := uint64(len(blob) - footerSize)
	indexOff := uint64(binary.LittleEndian.Uint32(footer[20:24]))
	indexLen := uint64(binary.LittleEndian.Uint32(footer[24:28]))
	bloomOff := uint64(binary.LittleEndian.Uint32(footer[28:32]))
	bloomLen := uint64(binary.LittleEndian.Uint32(footer[32:36]))
	// Section layout must be data | index | bloom, each in bounds; the
	// uint64 arithmetic keeps a forged length from wrapping on 32-bit.
	if indexOff+indexLen*4 != bloomOff || bloomOff+bloomLen != body {
		return nil, fmt.Errorf("%w: sections out of bounds", ErrMalformed)
	}
	// Builder.Finish gives every non-empty table a filter, and MayContain
	// trusts it: an empty one would hide the table's entries.
	if indexLen > 0 && bloomLen == 0 {
		return nil, fmt.Errorf("%w: entries without a bloom filter", ErrMalformed)
	}
	t.bloom = blob[bloomOff : bloomOff+bloomLen]
	t.data = blob[:indexOff]
	// Index entries and the last block are walked in place: only their keys
	// are kept, so their values are never copied. ViewEntry fails exactly
	// where DecodeEntry would, which keeps every malformed-blob check.
	t.index = make([]indexEnt, indexLen)
	for i := uint64(0); i < indexLen; i++ {
		off := binary.LittleEndian.Uint32(blob[indexOff+i*4:])
		if int(off) > len(t.data) {
			return nil, fmt.Errorf("%w: index entry out of bounds", ErrMalformed)
		}
		v, _, ok := kv.ViewEntry(t.data[off:])
		if !ok {
			return nil, fmt.Errorf("%w: index entry %d truncated", ErrMalformed, i)
		}
		t.index[i] = indexEnt{key: viewKey(v), off: off}
	}
	if len(t.index) > 0 {
		// Key-range tags: the first entry is the min key; the max key is
		// within the last index block (≤ indexEvery entries from its
		// start).
		t.minKey = t.index[0].key
		var last kv.EntryView
		for off := int(t.index[len(t.index)-1].off); off < len(t.data); {
			v, n, ok := kv.ViewEntry(t.data[off:])
			if !ok {
				return nil, fmt.Errorf("%w: entry at offset %d truncated", ErrMalformed, off)
			}
			last = v
			off += n
		}
		t.maxKey = viewKey(last)
	}
	return t, nil
}

// viewKey copies a located entry's key out of the blob.
func viewKey(v kv.EntryView) kv.Key {
	row, col := v.Key()
	return kv.Key{Row: string(row), Col: string(col)}
}

// ID returns the table's identifier.
func (t *Table) ID() uint64 { return t.id }

// Len returns the number of entries.
func (t *Table) Len() int { return t.count }

// LSNRange returns the min and max LSN tags (paper §6.1: "each SSTable is
// tagged with the min and max LSN of the writes that it contains").
func (t *Table) LSNRange() (min, max wal.LSN) { return t.minLSN, t.maxLSN }

// KeyRange returns the smallest and largest key in the table; ok is false
// for an empty table.
func (t *Table) KeyRange() (min, max kv.Key, ok bool) {
	return t.minKey, t.maxKey, len(t.index) > 0
}

// Bytes returns the size of the data section — the encoded entries, without
// the sparse index, bloom filter or footer (len(Blob()) is the whole table).
func (t *Table) Bytes() int { return len(t.data) }

// Blob returns the table's full serialized form — the exact bytes Open was
// given, footer included. Bulk catch-up ships it verbatim so the receiver
// can Open it without a rebuild; the slice aliases the table's backing
// store and must not be modified.
func (t *Table) Blob() []byte { return t.blob }

// MayContain reports whether the table can hold key, by key-range tag and
// bloom filter. False means a Get is guaranteed to miss; true means it may
// hit (bloom false positives pass).
//
//spinnaker:hotpath
func (t *Table) MayContain(key kv.Key) bool {
	if len(t.index) == 0 || key.Less(t.minKey) || t.maxKey.Less(key) {
		return false
	}
	return bloomMayContain(t.bloom, key.Row, key.Col)
}

// SpansRow reports whether the table's key range intersects row (the bloom
// filter is per cell key, so row scans prune on the range tags only).
func (t *Table) SpansRow(row string) bool {
	return len(t.index) > 0 && t.minKey.Row <= row && row <= t.maxKey.Row
}

// Get returns the cell stored for key. It compares key against the encoded
// entries in place and decodes only the one that matches, whose Value
// aliases the table's blob: nothing writes a blob after it is built, and
// callers must keep it that way. Every entry scanned past is length-checked
// as kv.DecodeEntry would check it, so a truncated or forged entry is a
// miss.
//
//spinnaker:aliases
//spinnaker:hotpath
func (t *Table) Get(key kv.Key) (kv.Cell, bool) {
	// Find the last index entry with key ≤ target: lo is the first one
	// past it.
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key.Less(t.index[mid].key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return kv.Cell{}, false
	}
	off := int(t.index[lo-1].off)
	for scanned := 0; off < len(t.data) && scanned < indexEvery; scanned++ {
		v, n, ok := kv.ViewEntry(t.data[off:])
		if !ok {
			return kv.Cell{}, false
		}
		switch c := v.Compare(key); {
		case c == 0:
			return v.Cell(), true
		case c > 0:
			return kv.Cell{}, false
		}
		off += n
	}
	return kv.Cell{}, false
}

// Ascend calls fn for each entry in key order until fn returns false.
func (t *Table) Ascend(fn func(e kv.Entry) bool) error {
	off := 0
	for off < len(t.data) {
		e, n, err := kv.DecodeEntry(t.data[off:])
		if err != nil {
			return fmt.Errorf("sstable: scan: %w", err)
		}
		if !fn(e) {
			return nil
		}
		off += n
	}
	return nil
}

// AscendRow calls fn for each column of row in column order, seeking to the
// row through the sparse index instead of scanning from the head.
func (t *Table) AscendRow(row string, fn func(e kv.Entry) bool) error {
	if !t.SpansRow(row) {
		return nil
	}
	start := kv.Key{Row: row}
	i := sort.Search(len(t.index), func(i int) bool {
		return start.Less(t.index[i].key)
	}) - 1
	if i < 0 {
		i = 0
	}
	off := int(t.index[i].off)
	for off < len(t.data) {
		e, n, err := kv.DecodeEntry(t.data[off:])
		if err != nil {
			return fmt.Errorf("sstable: scan: %w", err)
		}
		if e.Key.Row > row {
			return nil
		}
		if e.Key.Row == row && !fn(e) {
			return nil
		}
		off += n
	}
	return nil
}
