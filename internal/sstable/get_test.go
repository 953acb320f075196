package sstable

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"spinnaker/internal/kv"
)

// referenceGet is the probe Table.Get replaced: the same index search and
// block scan, materialising every entry with kv.DecodeEntry. The in-place
// probe must return exactly what this returns.
func referenceGet(t *Table, key kv.Key) (kv.Cell, bool) {
	i := sort.Search(len(t.index), func(i int) bool {
		return key.Less(t.index[i].key)
	}) - 1
	if i < 0 {
		return kv.Cell{}, false
	}
	off := int(t.index[i].off)
	for scanned := 0; off < len(t.data) && scanned < indexEvery; scanned++ {
		e, n, err := kv.DecodeEntry(t.data[off:])
		if err != nil {
			return kv.Cell{}, false
		}
		switch c := e.Key.Compare(key); {
		case c == 0:
			return e.Cell, true
		case c > 0:
			return kv.Cell{}, false
		}
		off += n
	}
	return kv.Cell{}, false
}

// fuzzEntries is a block and a half of entries, values of several lengths
// (none, short, long) and a tombstone among them.
func fuzzEntries() []kv.Entry {
	var out []kv.Entry
	for i := 0; i < indexEvery+indexEvery/2; i++ {
		e := entry(fmt.Sprintf("row%03d", i), "c", strings.Repeat("v", i*7%40), uint64(i+1))
		e.Cell.Deleted = i%5 == 0
		out = append(out, e)
	}
	return out
}

func encodeAll(entries []kv.Entry) []byte {
	var data []byte
	for _, e := range entries {
		data = kv.EncodeEntry(data, e)
	}
	return data
}

// FuzzTableGet feeds the probe arbitrary bytes twice over: as a table blob
// (probed when Open admits it) and as a raw data section under a one-entry
// index, which is how a block that Open does not walk — it checks only the
// entries the sparse index points at, and the last block — reaches Get.
func FuzzTableGet(f *testing.F) {
	entries := fuzzEntries()
	b := NewBuilder()
	for _, e := range entries {
		b.Add(e)
	}
	f.Add(b.Finish(), "row007", "c") // a valid table
	data := encodeAll(entries)
	f.Add(data, "row020", "c")
	f.Add(data[:len(data)-9], "row023", "c") // cut mid-entry
	forged := append([]byte(nil), data...)
	first := kv.EncodeEntry(nil, entries[0])
	binary.LittleEndian.PutUint32(forged[len(first)-4-len(entries[0].Cell.Value):], 1<<31) // a value length far past the blob
	f.Add(forged, "row003", "c")
	f.Add([]byte{}, "", "")

	f.Fuzz(func(t *testing.T, blob []byte, row, col string) {
		key := kv.Key{Row: row, Col: col}
		tables := []*Table{{data: blob, index: []indexEnt{{off: 0}}}}
		if opened, err := Open(1, blob); err == nil {
			tables = append(tables, opened)
		}
		for _, tbl := range tables {
			got, gotOK := tbl.Get(key)
			want, wantOK := referenceGet(tbl, key)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("Get(%q) = %+v, %v; reference %+v, %v", key, got, gotOK, want, wantOK)
			}
		}
	})
}

// TestTableGetAgreesWithReference runs the differential over every key of a
// multi-block table, and over the same table with each single byte of its
// data section corrupted in turn.
func TestTableGetAgreesWithReference(t *testing.T) {
	entries := fuzzEntries()
	tbl := buildTable(t, 1, entries...)
	probe := func(tbl *Table, what string) {
		t.Helper()
		for _, e := range entries {
			for _, key := range []kv.Key{e.Key, {Row: e.Key.Row, Col: "b"}, {Row: e.Key.Row + "x", Col: "c"}} {
				got, gotOK := tbl.Get(key)
				want, wantOK := referenceGet(tbl, key)
				if gotOK != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Get(%q) = %+v, %v; reference %+v, %v", what, key, got, gotOK, want, wantOK)
				}
			}
		}
	}
	probe(tbl, "intact")
	for i := range tbl.data {
		corrupt := *tbl
		corrupt.data = append([]byte(nil), tbl.data...)
		corrupt.data[i] ^= 0xff
		probe(&corrupt, fmt.Sprintf("byte %d flipped", i))
	}
}

// TestTableGetAllocs: a point lookup allocates nothing — not on a hit (the
// cell aliases the blob), not on a miss the bloom filter answers. Keys are
// longer than any buffer the compiler could keep on the stack for a
// conversion.
func TestTableGetAllocs(t *testing.T) {
	pad := strings.Repeat("k", 100)
	var entries []kv.Entry
	for i := 0; i < 4*indexEvery; i++ {
		entries = append(entries, entry(fmt.Sprintf("%s%04d", pad, i), pad, strings.Repeat("v", 256), uint64(i+1)))
	}
	tbl := buildTable(t, 1, entries...)
	hit := entries[2*indexEvery+7].Key
	miss := kv.Key{Row: pad + "0009x", Col: pad}
	if tbl.MayContain(miss) {
		t.Skip("bloom false positive on the chosen absent key")
	}
	var (
		cell kv.Cell
		ok   bool
	)
	if n := testing.AllocsPerRun(200, func() {
		if tbl.MayContain(hit) {
			cell, ok = tbl.Get(hit)
		}
	}); n != 0 || !ok || len(cell.Value) != 256 {
		t.Errorf("hit: %v allocs/op (want 0), found=%v, %d value bytes", n, ok, len(cell.Value))
	}
	if n := testing.AllocsPerRun(200, func() { ok = tbl.MayContain(miss) }); n != 0 || ok {
		t.Errorf("bloom miss: %v allocs/op (want 0), admitted=%v", n, ok)
	}
	if n := testing.AllocsPerRun(200, func() { _, ok = tbl.Get(miss) }); n != 0 || ok {
		t.Errorf("probe miss: %v allocs/op (want 0), found=%v", n, ok)
	}
}

// TestOpenAllocs: Open keeps only the keys of the entries it walks (the
// sparse index and the last index block), so it allocates the table, the
// index slice and two strings per key, and copies no value.
func TestOpenAllocs(t *testing.T) {
	const n, valueSize = 10*indexEvery + 5, 4096
	var entries []kv.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, entry(fmt.Sprintf("row%06d", i), "col", strings.Repeat("v", valueSize), uint64(i+1)))
	}
	b := NewBuilder()
	for _, e := range entries {
		b.Add(e)
	}
	blob := b.Finish()
	indexLen := (n + indexEvery - 1) / indexEvery
	var (
		tbl *Table
		err error
	)
	allocs := testing.AllocsPerRun(50, func() { tbl, err = Open(1, blob) })
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(2 + 2*(indexLen+1)); allocs > want {
		t.Errorf("Open: %v allocs, want ≤ %v (table, index, a row and a column per index entry and for the max key)", allocs, want)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		tbl, err = Open(1, blob)
	}
	runtime.ReadMemStats(&after)
	if perOpen := (after.TotalAlloc - before.TotalAlloc) / 10; perOpen >= valueSize {
		t.Errorf("Open allocates %d bytes, at least one %d-byte value", perOpen, valueSize)
	}
	if min, max, ok := tbl.KeyRange(); !ok || min != entries[0].Key || max != entries[n-1].Key {
		t.Errorf("KeyRange = %v, %v, %v; want %v, %v", min, max, ok, entries[0].Key, entries[n-1].Key)
	}
}
