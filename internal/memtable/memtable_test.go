package memtable

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

func TestSealedMemtableRejectsApplies(t *testing.T) {
	m := New()
	m.Apply(kv.Key{Row: "r", Col: "c"}, kv.Cell{Value: []byte("v"), LSN: wal.MakeLSN(1, 1)})
	m.Seal()
	// Reads keep working on a sealed memtable (it stays in the engine's
	// read path while its SSTable is built).
	if c, ok := m.Get(kv.Key{Row: "r", Col: "c"}); !ok || string(c.Value) != "v" {
		t.Fatalf("Get after seal = %q,%v", c.Value, ok)
	}
	if got := len(snapshot(m)); got != 1 {
		t.Fatalf("Ascend after seal = %d entries", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Apply to a sealed memtable did not panic")
		}
	}()
	m.Apply(kv.Key{Row: "r2", Col: "c"}, kv.Cell{Value: []byte("late"), LSN: wal.MakeLSN(1, 2)})
}

func cellAt(seq uint64, val string) kv.Cell {
	return kv.Cell{Value: []byte(val), LSN: wal.MakeLSN(1, seq), Version: seq}
}

func TestMemtableApplyGet(t *testing.T) {
	m := New()
	k := kv.Key{Row: "r1", Col: "c1"}
	if _, ok := m.Get(k); ok {
		t.Fatal("empty table returned a value")
	}
	m.Apply(k, cellAt(1, "v1"))
	c, ok := m.Get(k)
	if !ok || string(c.Value) != "v1" {
		t.Fatalf("Get = %q,%v", c.Value, ok)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMemtableNewerWins(t *testing.T) {
	m := New()
	k := kv.Key{Row: "r", Col: "c"}
	m.Apply(k, cellAt(5, "newer"))
	m.Apply(k, cellAt(3, "older")) // replay of an older write: ignored
	c, _ := m.Get(k)
	if string(c.Value) != "newer" {
		t.Errorf("older write overwrote newer: %q", c.Value)
	}
	m.Apply(k, cellAt(9, "newest"))
	c, _ = m.Get(k)
	if string(c.Value) != "newest" {
		t.Errorf("newer write ignored: %q", c.Value)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1 (same key)", m.Len())
	}
}

func TestMemtableIdempotentReplay(t *testing.T) {
	// Local recovery re-applies log records "in an idempotent way" (§6.1).
	m := New()
	k := kv.Key{Row: "r", Col: "c"}
	cell := cellAt(7, "value")
	m.Apply(k, cell)
	m.Apply(k, cell)
	m.Apply(k, cell)
	if m.Len() != 1 {
		t.Errorf("Len = %d after triple apply", m.Len())
	}
	c, _ := m.Get(k)
	if c.LSN != cell.LSN || string(c.Value) != "value" {
		t.Errorf("replay corrupted cell: %+v", c)
	}
}

func TestMemtableTombstone(t *testing.T) {
	m := New()
	k := kv.Key{Row: "r", Col: "c"}
	m.Apply(k, cellAt(1, "v"))
	m.Apply(k, kv.Cell{Deleted: true, LSN: wal.MakeLSN(1, 2), Version: 2})
	c, ok := m.Get(k)
	if !ok || !c.Deleted {
		t.Errorf("tombstone not surfaced: ok=%v cell=%+v", ok, c)
	}
}

func TestMemtableAscendSorted(t *testing.T) {
	m := New()
	keys := []kv.Key{
		{Row: "b", Col: "2"}, {Row: "a", Col: "9"}, {Row: "c", Col: "1"},
		{Row: "a", Col: "1"}, {Row: "b", Col: "1"},
	}
	for i, k := range keys {
		m.Apply(k, cellAt(uint64(i+1), "v"))
	}
	var got []kv.Key
	m.Ascend(func(e kv.Entry) bool {
		got = append(got, e.Key)
		return true
	})
	if len(got) != len(keys) {
		t.Fatalf("Ascend yielded %d keys", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Less(got[j]) }) {
		t.Errorf("Ascend out of order: %v", got)
	}
}

func TestMemtableAscendEarlyStop(t *testing.T) {
	m := New()
	for i := 0; i < 10; i++ {
		m.Apply(kv.Key{Row: fmt.Sprintf("r%02d", i), Col: "c"}, cellAt(uint64(i+1), "v"))
	}
	var n int
	m.Ascend(func(kv.Entry) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestMemtableAscendRow(t *testing.T) {
	m := New()
	m.Apply(kv.Key{Row: "a", Col: "1"}, cellAt(1, "a1"))
	m.Apply(kv.Key{Row: "b", Col: "1"}, cellAt(2, "b1"))
	m.Apply(kv.Key{Row: "b", Col: "2"}, cellAt(3, "b2"))
	m.Apply(kv.Key{Row: "c", Col: "1"}, cellAt(4, "c1"))
	var cols []string
	m.AscendRow("b", func(e kv.Entry) bool {
		cols = append(cols, e.Key.Col)
		return true
	})
	if len(cols) != 2 || cols[0] != "1" || cols[1] != "2" {
		t.Errorf("AscendRow(b) = %v", cols)
	}
	var none []string
	m.AscendRow("zz", func(e kv.Entry) bool {
		none = append(none, e.Key.Col)
		return true
	})
	if len(none) != 0 {
		t.Errorf("AscendRow(zz) = %v", none)
	}
}

func TestMemtableLSNRange(t *testing.T) {
	m := New()
	min, max := m.LSNRange()
	if !min.IsZero() || !max.IsZero() {
		t.Error("empty table has nonzero LSN range")
	}
	m.Apply(kv.Key{Row: "a", Col: "c"}, cellAt(5, "v"))
	m.Apply(kv.Key{Row: "b", Col: "c"}, cellAt(3, "v"))
	m.Apply(kv.Key{Row: "c", Col: "c"}, cellAt(9, "v"))
	min, max = m.LSNRange()
	if min != wal.MakeLSN(1, 3) || max != wal.MakeLSN(1, 9) {
		t.Errorf("LSNRange = %s,%s want 1.3,1.9", min, max)
	}
}

func TestMemtableBytesTracking(t *testing.T) {
	m := New()
	if m.Bytes() != 0 {
		t.Error("empty table has bytes")
	}
	m.Apply(kv.Key{Row: "row", Col: "col"}, cellAt(1, "0123456789"))
	b1 := m.Bytes()
	if b1 <= 0 {
		t.Fatalf("Bytes = %d after insert", b1)
	}
	// Overwriting with a larger value grows the accounting.
	m.Apply(kv.Key{Row: "row", Col: "col"}, cellAt(2, "01234567890123456789"))
	if m.Bytes() <= b1 {
		t.Errorf("Bytes did not grow on larger overwrite: %d -> %d", b1, m.Bytes())
	}
}

func TestMemtableSnapshotSorted(t *testing.T) {
	m := New()
	for i := 9; i >= 0; i-- {
		m.Apply(kv.Key{Row: fmt.Sprintf("r%d", i), Col: "c"}, cellAt(uint64(10-i), "v"))
	}
	snap := snapshot(m)
	if len(snap) != 10 {
		t.Fatalf("Ascend yielded %d entries", len(snap))
	}
	if !sort.SliceIsSorted(snap, func(i, j int) bool { return snap[i].Key.Less(snap[j].Key) }) {
		t.Error("Ascend not in key order")
	}
}

// snapshot collects every entry Ascend yields, the view a flush writes.
func snapshot(m *Memtable) []kv.Entry {
	var out []kv.Entry
	m.Ascend(func(e kv.Entry) bool { out = append(out, e); return true })
	return out
}

func TestMemtableConcurrentReadersWriters(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := kv.Key{Row: fmt.Sprintf("r%d", i%37), Col: fmt.Sprintf("c%d", w)}
				m.Apply(k, cellAt(uint64(w*1000+i+1), "v"))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Get(kv.Key{Row: fmt.Sprintf("r%d", i%37), Col: "c0"})
				m.Ascend(func(kv.Entry) bool { return false })
			}
		}()
	}
	wg.Wait()
	if m.Len() != 37*4 {
		t.Errorf("Len = %d, want %d", m.Len(), 37*4)
	}
}

func TestMemtablePropertyMatchesMap(t *testing.T) {
	// Property: a memtable behaves like a map when writes arrive with
	// increasing LSNs.
	f := func(ops []struct {
		Row, Col uint8
		Val      uint16
	}) bool {
		m := New()
		ref := make(map[kv.Key]string)
		for i, op := range ops {
			k := kv.Key{Row: fmt.Sprintf("r%d", op.Row%8), Col: fmt.Sprintf("c%d", op.Col%4)}
			v := fmt.Sprintf("v%d", op.Val)
			m.Apply(k, kv.Cell{Value: []byte(v), LSN: wal.MakeLSN(1, uint64(i+1))})
			ref[k] = v
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			c, ok := m.Get(k)
			if !ok || string(c.Value) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
