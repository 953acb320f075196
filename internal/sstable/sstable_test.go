package sstable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

func entry(row, col, val string, seq uint64) kv.Entry {
	return kv.Entry{
		Key:  kv.Key{Row: row, Col: col},
		Cell: kv.Cell{Value: []byte(val), LSN: wal.MakeLSN(1, seq), Version: seq},
	}
}

func buildTable(t *testing.T, id uint64, entries ...kv.Entry) *Table {
	t.Helper()
	b := NewBuilder()
	for _, e := range entries {
		b.Add(e)
	}
	tbl, err := Open(id, b.Finish())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return tbl
}

func TestTableGet(t *testing.T) {
	tbl := buildTable(t, 1,
		entry("a", "1", "a1", 1),
		entry("b", "1", "b1", 2),
		entry("c", "1", "c1", 3),
	)
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	c, ok := tbl.Get(kv.Key{Row: "b", Col: "1"})
	if !ok || string(c.Value) != "b1" {
		t.Errorf("Get(b:1) = %q,%v", c.Value, ok)
	}
	if _, ok := tbl.Get(kv.Key{Row: "bb", Col: "1"}); ok {
		t.Error("Get of absent key succeeded")
	}
	if _, ok := tbl.Get(kv.Key{Row: "", Col: ""}); ok {
		t.Error("Get before first key succeeded")
	}
	if _, ok := tbl.Get(kv.Key{Row: "zzz", Col: "9"}); ok {
		t.Error("Get past last key succeeded")
	}
}

func TestTableGetLargeSpansIndex(t *testing.T) {
	// More entries than indexEvery so lookups cross sparse-index blocks.
	b := NewBuilder()
	const n = 200
	for i := 0; i < n; i++ {
		b.Add(entry(fmt.Sprintf("row%04d", i), "c", fmt.Sprintf("v%d", i), uint64(i+1)))
	}
	tbl, err := Open(9, b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c, ok := tbl.Get(kv.Key{Row: fmt.Sprintf("row%04d", i), Col: "c"})
		if !ok || string(c.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(row%04d) = %q,%v", i, c.Value, ok)
		}
	}
	if _, ok := tbl.Get(kv.Key{Row: "row0100x", Col: "c"}); ok {
		t.Error("absent key inside range found")
	}
}

func TestBuilderSortsAndDedups(t *testing.T) {
	tbl := buildTable(t, 1,
		entry("b", "1", "old", 1),
		entry("a", "1", "a", 2),
		entry("b", "1", "new", 5), // same key, newer LSN
	)
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after dedup", tbl.Len())
	}
	c, _ := tbl.Get(kv.Key{Row: "b", Col: "1"})
	if string(c.Value) != "new" {
		t.Errorf("dedup kept %q", c.Value)
	}
	var keys []kv.Key
	if err := tbl.Ascend(func(e kv.Entry) bool { keys = append(keys, e.Key); return true }); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i].Less(keys[j]) }) {
		t.Errorf("not sorted: %v", keys)
	}
}

func TestTableLSNRange(t *testing.T) {
	tbl := buildTable(t, 1,
		entry("a", "1", "v", 7),
		entry("b", "1", "v", 3),
		entry("c", "1", "v", 12),
	)
	min, max := tbl.LSNRange()
	if min != wal.MakeLSN(1, 3) || max != wal.MakeLSN(1, 12) {
		t.Errorf("LSNRange = %s,%s", min, max)
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := buildTable(t, 1)
	if tbl.Len() != 0 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if _, ok := tbl.Get(kv.Key{Row: "a", Col: "b"}); ok {
		t.Error("Get on empty table succeeded")
	}
	min, max := tbl.LSNRange()
	if !min.IsZero() || !max.IsZero() {
		t.Error("empty table has LSN range")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(1, nil); err == nil {
		t.Error("nil blob accepted")
	}
	if _, err := Open(1, []byte("definitely not a table, but long enough to have a footer")); err == nil {
		t.Error("garbage blob accepted")
	}
	// Valid table with corrupted magic.
	blob := NewBuilder().Finish()
	blob[len(blob)-1] ^= 0xFF
	if _, err := Open(1, blob); err == nil {
		t.Error("corrupted magic accepted")
	}
}

func TestTableAscendRow(t *testing.T) {
	tbl := buildTable(t, 1,
		entry("a", "1", "a1", 1),
		entry("b", "1", "b1", 2),
		entry("b", "2", "b2", 3),
		entry("c", "1", "c1", 4),
	)
	var cols []string
	if err := tbl.AscendRow("b", func(e kv.Entry) bool {
		cols = append(cols, e.Key.Col)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "1" || cols[1] != "2" {
		t.Errorf("AscendRow(b) = %v", cols)
	}
}

// merged runs tables through Compact and reads the resulting table back.
func merged(t *testing.T, tables []*Table, dropBelow wal.LSN) []kv.Entry {
	t.Helper()
	blob, err := Compact(tables, dropBelow)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Open(0, blob)
	if err != nil {
		t.Fatal(err)
	}
	var entries []kv.Entry
	if err := out.Ascend(func(e kv.Entry) bool { entries = append(entries, e); return true }); err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestMergeNewestWins(t *testing.T) {
	older := buildTable(t, 1,
		entry("a", "1", "old-a", 1),
		entry("b", "1", "old-b", 2),
	)
	newer := buildTable(t, 2,
		entry("b", "1", "new-b", 5),
		entry("c", "1", "new-c", 6),
	)
	out := merged(t, []*Table{newer, older}, 0)
	if len(out) != 3 {
		t.Fatalf("merged %d entries, want 3", len(out))
	}
	byKey := map[string]string{}
	for _, e := range out {
		byKey[e.Key.String()] = string(e.Cell.Value)
	}
	if byKey["b:1"] != "new-b" {
		t.Errorf("merge kept %q for b:1", byKey["b:1"])
	}
	if byKey["a:1"] != "old-a" || byKey["c:1"] != "new-c" {
		t.Errorf("merge lost singleton keys: %v", byKey)
	}
}

func TestMergeDropsTombstonesOnFullMerge(t *testing.T) {
	data := buildTable(t, 1, entry("a", "1", "v", 1), entry("b", "1", "v", 2))
	del := kv.Entry{Key: kv.Key{Row: "a", Col: "1"},
		Cell: kv.Cell{Deleted: true, LSN: wal.MakeLSN(1, 9), Version: 9}}
	tombs := buildTable(t, 2, del)

	full := merged(t, []*Table{tombs, data}, DropAllTombstones)
	if len(full) != 1 || full[0].Key.Row != "b" {
		t.Errorf("full merge = %v, want only b:1", full)
	}

	partial := merged(t, []*Table{tombs, data}, 0)
	if len(partial) != 2 {
		t.Fatalf("partial merge = %d entries, want 2 (tombstone kept)", len(partial))
	}
	var sawTomb bool
	for _, e := range partial {
		if e.Cell.Deleted {
			sawTomb = true
		}
	}
	if !sawTomb {
		t.Error("partial merge dropped the tombstone")
	}
}

func TestMergeWatermarkGatesTombstones(t *testing.T) {
	data := buildTable(t, 1, entry("a", "1", "v", 1), entry("b", "1", "v", 2))
	oldDel := kv.Entry{Key: kv.Key{Row: "a", Col: "1"},
		Cell: kv.Cell{Deleted: true, LSN: wal.MakeLSN(1, 5), Version: 5}}
	newDel := kv.Entry{Key: kv.Key{Row: "b", Col: "1"},
		Cell: kv.Cell{Deleted: true, LSN: wal.MakeLSN(1, 9), Version: 9}}
	tombs := buildTable(t, 2, oldDel, newDel)

	// Watermark at 1.5: the delete at 1.5 (and the value it shadows) is
	// garbage-collected; the delete at 1.9 must survive the merge so
	// catch-up can still ship it to a follower whose cmt < 1.9.
	out := merged(t, []*Table{tombs, data}, wal.MakeLSN(1, 5))
	got := map[string]bool{} // row → deleted
	for _, e := range out {
		got[e.Key.Row] = e.Cell.Deleted
	}
	if _, ok := got["a"]; ok {
		t.Errorf("tombstone at watermark survived: %v", out)
	}
	deleted, ok := got["b"]
	if !ok || !deleted {
		t.Errorf("tombstone above watermark dropped: %v", out)
	}
}

func TestCompactRoundTrip(t *testing.T) {
	t1 := buildTable(t, 1, entry("a", "1", "a", 1), entry("b", "1", "b-old", 2))
	t2 := buildTable(t, 2, entry("b", "1", "b-new", 4), entry("c", "1", "c", 5))
	blob, err := Compact([]*Table{t2, t1}, DropAllTombstones)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Open(3, blob)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("compacted Len = %d", out.Len())
	}
	c, _ := out.Get(kv.Key{Row: "b", Col: "1"})
	if string(c.Value) != "b-new" {
		t.Errorf("compaction kept %q", c.Value)
	}
	min, max := out.LSNRange()
	if min != wal.MakeLSN(1, 1) || max != wal.MakeLSN(1, 5) {
		t.Errorf("compacted LSNRange = %s,%s", min, max)
	}
}

func TestTablePropertyAllKeysFindable(t *testing.T) {
	f := func(rows []uint16) bool {
		b := NewBuilder()
		want := make(map[kv.Key]uint64)
		for i, r := range rows {
			k := kv.Key{Row: fmt.Sprintf("r%05d", r), Col: "c"}
			seq := uint64(i + 1)
			b.Add(kv.Entry{Key: k, Cell: kv.Cell{LSN: wal.MakeLSN(1, seq), Version: seq}})
			if seq > want[k] {
				want[k] = seq
			}
		}
		tbl, err := Open(1, b.Finish())
		if err != nil {
			return false
		}
		if tbl.Len() != len(want) {
			return false
		}
		for k, seq := range want {
			c, ok := tbl.Get(k)
			if !ok || c.Version != seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTableKeyRangeAndMayContain(t *testing.T) {
	tbl := buildTable(t, 1,
		entry("b", "1", "v", 1),
		entry("d", "2", "v", 2),
		entry("f", "1", "v", 3),
	)
	if tbl.index[0].key.Row != "b" || tbl.maxKey.Row != "f" {
		t.Fatalf("key range = %v..%v", tbl.index[0].key, tbl.maxKey)
	}
	// Out-of-range keys are rejected without touching the bloom filter.
	if tbl.MayContain(kv.Key{Row: "a", Col: "9"}) {
		t.Error("key below range admitted")
	}
	if tbl.MayContain(kv.Key{Row: "g", Col: "0"}) {
		t.Error("key above range admitted")
	}
	// Present keys must always be admitted (no false negatives).
	for _, k := range []kv.Key{{Row: "b", Col: "1"}, {Row: "d", Col: "2"}, {Row: "f", Col: "1"}} {
		if !tbl.MayContain(k) {
			t.Errorf("present key %v rejected", k)
		}
	}
	if tbl.SpansRow("a") || tbl.SpansRow("g") {
		t.Error("SpansRow admitted out-of-range rows")
	}
	if !tbl.SpansRow("c") || !tbl.SpansRow("b") || !tbl.SpansRow("f") {
		t.Error("SpansRow rejected in-range rows")
	}

	empty := buildTable(t, 2)
	if empty.MayContain(kv.Key{Row: "b", Col: "1"}) || empty.SpansRow("b") {
		t.Error("empty table admits keys")
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := NewBuilder()
	const n = 4096
	for i := 0; i < n; i++ {
		b.Add(entry(fmt.Sprintf("row%05d", i*2), "c", "v", uint64(i+1)))
	}
	tbl, err := Open(1, b.Finish())
	if err != nil {
		t.Fatal(err)
	}
	// No false negatives.
	for i := 0; i < n; i++ {
		if !tbl.MayContain(kv.Key{Row: fmt.Sprintf("row%05d", i*2), Col: "c"}) {
			t.Fatalf("present key row%05d rejected", i*2)
		}
	}
	// Absent keys inside the key range: the bloom filter must prune the
	// vast majority (~1% theoretical at 10 bits/key; allow 5%).
	fp := 0
	for i := 0; i < n; i++ {
		if tbl.MayContain(kv.Key{Row: fmt.Sprintf("row%05d", i*2+1), Col: "c"}) {
			fp++
		}
	}
	if fp > n/20 {
		t.Errorf("false positive rate %d/%d exceeds 5%%", fp, n)
	}
}

// buildLegacyBlob serializes entries in the pre-bloom format 0 layout
// (entries | index | 32-byte footer, magic 0x55AB1E00) exactly as the
// seed binary wrote them.
func buildLegacyBlob(entries ...kv.Entry) []byte {
	const (
		legacyMagic      = 0x55AB1E00
		legacyFooterSize = 8 + 8 + 4 + 4 + 4 + 4
	)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	var (
		data           []byte
		idx            []uint32
		minLSN, maxLSN wal.LSN
	)
	for i, e := range entries {
		if i%indexEvery == 0 {
			idx = append(idx, uint32(len(data)))
		}
		data = kv.EncodeEntry(data, e)
		if l := e.Cell.LSN; !l.IsZero() {
			if minLSN.IsZero() || l < minLSN {
				minLSN = l
			}
			if l > maxLSN {
				maxLSN = l
			}
		}
	}
	indexOff := uint32(len(data))
	var scratch [4]byte
	for _, off := range idx {
		binary.LittleEndian.PutUint32(scratch[:], off)
		data = append(data, scratch[:]...)
	}
	footer := make([]byte, legacyFooterSize)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(minLSN))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(maxLSN))
	binary.LittleEndian.PutUint32(footer[16:20], uint32(len(entries)))
	binary.LittleEndian.PutUint32(footer[20:24], indexOff)
	binary.LittleEndian.PutUint32(footer[24:28], uint32(len(idx)))
	binary.LittleEndian.PutUint32(footer[28:32], legacyMagic)
	return append(data, footer...)
}

// TestOpenLegacyFormatTable pins that the pre-bloom format is gone: no
// builder has written it since the bloom section was added, and Open now
// refuses it like any other unknown trailing magic.
func TestOpenLegacyFormatTable(t *testing.T) {
	blob := buildLegacyBlob(
		entry("a", "1", "va", 1),
		entry("b", "1", "vb", 2),
		entry("c", "1", "vc", 3),
	)
	if _, err := Open(7, blob); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Open(format-0 blob) = %v, want ErrMalformed", err)
	}
	// Padded past the current footer size, so the magic check — not the
	// length check — is what refuses it.
	padded := append(make([]byte, footerSize), blob...)
	if _, err := Open(7, padded); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Open(padded format-0 blob) = %v, want ErrMalformed", err)
	}
	// Format 1 entries carried an eight-byte timestamp; its magic is
	// refused rather than its entries misread.
	b := NewBuilder()
	b.Add(entry("a", "1", "va", 1))
	v1 := b.Finish()
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], 0x55AB1E01)
	if _, err := Open(7, v1); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Open(format-1 blob) = %v, want ErrMalformed", err)
	}
}

func TestTableStoreImplementations(t *testing.T) {
	stores := map[string]TableStore{
		"mem": NewMemTableStore(),
	}
	fileStore, err := NewFileTableStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fileStore

	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			blob := NewBuilder().Finish()
			if err := s.Put(5, blob); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(2, blob); err != nil {
				t.Fatal(err)
			}
			ids, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
				t.Fatalf("List = %v", ids)
			}
			got, err := s.Get(5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Open(5, got); err != nil {
				t.Errorf("stored blob unreadable: %v", err)
			}
			if _, err := s.Get(99); err == nil {
				t.Error("Get of missing table succeeded")
			}
			if err := s.Remove(5); err != nil {
				t.Fatal(err)
			}
			ids, _ = s.List()
			if len(ids) != 1 {
				t.Errorf("after Remove List = %v", ids)
			}
		})
	}
}

// TestFileTableStoreFailedPutLeavesNoTemp: a put whose rename fails returns
// the error and leaves no temporary file; List skips such files, so
// storage.Open's orphan sweep would never remove it.
func TestFileTableStoreFailedPutLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileTableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the table's file should go fails the rename.
	if err := os.MkdirAll(filepath.Join(s.path(7), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(7, NewBuilder().Finish()); err == nil {
		t.Fatal("Put over a non-empty directory succeeded")
	}
	if _, err := os.Stat(s.path(7) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed Put left its temporary file behind (stat: %v)", err)
	}
}
