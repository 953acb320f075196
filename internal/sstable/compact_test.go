package sstable

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

// The reference below is the parent commit's table writer and merge, kept
// verbatim but for names: Finish grew the blob by append section by
// section, and Merge decoded every input entry into a container/heap merge
// whose output Compact re-sorted through a Builder. The writer and the
// raw-copy merge that replaced them must emit exactly these bytes.

func refFinish(in []kv.Entry) []byte {
	entries := append([]kv.Entry(nil), in...)
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Key.Less(entries[j].Key) })
	dedup := entries[:0]
	for _, e := range entries {
		if n := len(dedup); n > 0 && dedup[n-1].Key.Compare(e.Key) == 0 {
			if e.Cell.Newer(dedup[n-1].Cell) {
				dedup[n-1] = e
			}
			continue
		}
		dedup = append(dedup, e)
	}
	entries = dedup

	var (
		data   []byte
		idx    []uint32
		minLSN wal.LSN
		maxLSN wal.LSN
		bloom  []byte
	)
	if len(entries) > 0 {
		bloom = make([]byte, (len(entries)*bloomBitsPerKey+7)/8)
	}
	for i, e := range entries {
		if i%indexEvery == 0 {
			idx = append(idx, uint32(len(data)))
		}
		data = kv.EncodeEntry(data, e)
		refBloomAdd(bloom, e.Key)
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
	bloomOff := uint32(len(data))
	data = append(data, bloom...)
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(minLSN))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(maxLSN))
	binary.LittleEndian.PutUint32(footer[16:20], uint32(len(entries)))
	binary.LittleEndian.PutUint32(footer[20:24], indexOff)
	binary.LittleEndian.PutUint32(footer[24:28], uint32(len(idx)))
	binary.LittleEndian.PutUint32(footer[28:32], bloomOff)
	binary.LittleEndian.PutUint32(footer[32:36], uint32(len(bloom)))
	binary.LittleEndian.PutUint32(footer[36:40], magic)
	return append(data, footer...)
}

func refBloomAdd(filter []byte, key kv.Key) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key.Row); i++ {
		h = (h ^ uint64(key.Row[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(key.Col); i++ {
		h = (h ^ uint64(key.Col[i])) * prime64
	}
	h2 := (h>>33|h<<31)*0x9E3779B97F4A7C15 | 1
	nbits := uint64(len(filter)) * 8
	for i := uint64(0); i < bloomHashes; i++ {
		bit := (h + i*h2) % nbits
		filter[bit/8] |= 1 << (bit % 8)
	}
}

func refCompact(tables []*Table, dropBelow wal.LSN) ([]byte, error) {
	h := make(refHeap, 0, len(tables))
	for pri, t := range tables {
		var entries []kv.Entry
		if err := t.Ascend(func(e kv.Entry) bool { entries = append(entries, e); return true }); err != nil {
			return nil, err
		}
		if len(entries) > 0 {
			h = append(h, &refCursor{entries: entries, pri: pri})
		}
	}
	heap.Init(&h)
	var out []kv.Entry
	for h.Len() > 0 {
		cur := h[0]
		e := cur.entries[cur.pos]
		cur.pos++
		if cur.pos == len(cur.entries) {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
		if n := len(out); n > 0 && out[n-1].Key.Compare(e.Key) == 0 {
			if e.Cell.Newer(out[n-1].Cell) {
				out[n-1] = e
			}
			continue
		}
		out = append(out, e)
	}
	if dropBelow > 0 {
		live := out[:0]
		for _, e := range out {
			if !e.Cell.Deleted || e.Cell.LSN > dropBelow {
				live = append(live, e)
			}
		}
		out = live
	}
	return refFinish(out), nil
}

type refCursor struct {
	entries []kv.Entry
	pos     int
	pri     int
}

type refHeap []*refCursor

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if c := h[i].entries[h[i].pos].Key.Compare(h[j].entries[h[j].pos].Key); c != 0 {
		return c < 0
	}
	return h[i].pri < h[j].pri
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refCursor)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// randomEntries draws from a small key space so a builder sees duplicate
// keys and the tables of one merge overlap, with small LSN, version and
// timestamp ranges so cells tie on age, and with tombstones, empty values
// and zero LSNs among them.
func randomEntries(rng *rand.Rand, n int) []kv.Entry {
	out := make([]kv.Entry, n)
	for i := range out {
		e := kv.Entry{Key: kv.Key{Row: fmt.Sprintf("r%02d", rng.Intn(40)), Col: []string{"", "a", "bc"}[rng.Intn(3)]}}
		if seq := uint64(rng.Intn(30)); seq > 0 {
			e.Cell.LSN = wal.MakeLSN(1, seq)
		}
		e.Cell.Version = uint64(rng.Intn(3))
		if rng.Intn(8) == 0 {
			e.Cell.Timestamp = rng.Int63n(3)
		}
		if e.Cell.Deleted = rng.Intn(4) == 0; !e.Cell.Deleted {
			e.Cell.Value = bytes.Repeat([]byte{byte('a' + i%26)}, rng.Intn(24))
		}
		out[i] = e
	}
	return out
}

// TestWriterAndCompactMatchReference: Finish and Compact emit the parent's
// bytes, over random builders and random merges of 0–4 of their tables at
// three tombstone watermarks.
func TestWriterAndCompactMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 300; round++ {
		var tables []*Table
		for i := rng.Intn(5); i > 0; i-- {
			entries := randomEntries(rng, rng.Intn(3*indexEvery))
			b := NewBuilder()
			for _, e := range entries {
				b.Add(e)
			}
			blob, want := b.Finish(), refFinish(entries)
			if !bytes.Equal(blob, want) || cap(blob) != len(blob) {
				t.Fatalf("round %d: Finish = %d bytes (cap %d), reference %d bytes; differ", round, len(blob), cap(blob), len(want))
			}
			tbl, err := Open(uint64(len(tables)), blob)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tbl)
		}
		for _, drop := range []wal.LSN{0, wal.MakeLSN(1, 15), DropAllTombstones} {
			got, err := Compact(tables, drop)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := refCompact(tables, drop)
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("round %d, dropBelow %s: Compact of %d tables = %d bytes (cap %d), reference %d bytes; differ",
					round, drop, len(tables), len(got), cap(got), len(want))
			}
		}
	}
}

// FuzzCompact merges two arbitrary blobs, each as a table when Open admits
// it and as a bare data section when not. A corrupt input is an error and
// never a panic; the error cases are the reference's; any output opens; and
// where every input is what this package writes — sorted, and encoded as
// EncodeEntry encodes (a forged deleted byte of 2 reads as live, and the
// raw copy keeps it) — the output is the reference's byte for byte. Seeds:
// testdata/fuzz/FuzzCompact.
func FuzzCompact(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte, dropBelow uint64) {
		var tables []*Table
		for _, blob := range [][]byte{a, b} {
			tbl, err := Open(1, blob)
			if err != nil {
				tbl = &Table{data: blob, count: len(blob)}
			}
			tables = append(tables, tbl)
		}
		got, err := Compact(tables, wal.LSN(dropBelow))
		want, wantErr := refCompact(tables, wal.LSN(dropBelow))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Compact error %v, reference error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if _, err := Open(2, got); err != nil {
			t.Fatalf("Compact output does not open: %v", err)
		}
		for _, tbl := range tables {
			var entries []kv.Entry
			_ = tbl.Ascend(func(e kv.Entry) bool { entries = append(entries, e); return true })
			for i := 1; i < len(entries); i++ {
				if !entries[i-1].Key.Less(entries[i].Key) {
					return
				}
			}
			if !bytes.Equal(encodeAll(entries), tbl.data) {
				return
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Compact = %d bytes, reference %d bytes; differ", len(got), len(want))
		}
	})
}

// TestCompactAllocs: a merge and a sorted write allocate a fixed number of
// objects — cursors, winner spans, the blob — whatever the entry count.
func TestCompactAllocs(t *testing.T) {
	allocs := func(entries int) (compact, write float64) {
		var tables []*Table
		var all []kv.Entry
		for i := 0; i < 4; i++ {
			b := NewBuilder()
			for j := i; j < entries; j += 4 {
				e := entry(fmt.Sprintf("row%06d", j), "c", "value", uint64(j+1))
				b.Add(e)
				all = append(all, e)
			}
			tbl, err := Open(uint64(i), b.Finish())
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tbl)
		}
		compact = testing.AllocsPerRun(5, func() {
			if _, err := Compact(tables, DropAllTombstones); err != nil {
				t.Fatal(err)
			}
		})
		write = testing.AllocsPerRun(5, func() {
			WriteSorted(func(fn func(kv.Entry) bool) {
				for _, e := range all {
					fn(e)
				}
			})
		})
		return compact, write
	}
	c100, w100 := allocs(100)
	c10k, w10k := allocs(10_000)
	if c100 != c10k || w100 != w10k {
		t.Errorf("allocs/op at 100 and 10 000 entries: Compact %v, %v; WriteSorted %v, %v — want each constant", c100, c10k, w100, w10k)
	}
}

// TestMemTableStoreKeepsBlob: Put takes ownership, so the store keeps the
// caller's blob and Get returns that same array.
func TestMemTableStoreKeepsBlob(t *testing.T) {
	s := NewMemTableStore()
	blob := NewBuilder().Finish()
	if err := s.Put(1, blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &blob[0] {
		t.Error("MemTableStore copied the blob it was given")
	}
}
