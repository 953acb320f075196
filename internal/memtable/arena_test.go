package memtable

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

// TestMemtableApplyAllocs: a new key's node and tower come from the arena's
// chunks, so inserting allocates a chunk now and then rather than two
// objects per key; replacing a key's cell allocates nothing.
func TestMemtableApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 10000
	keys := make([]kv.Key, n+1)
	for i := range keys {
		keys[i] = kv.Key{Row: fmt.Sprintf("row%06d", i), Col: "c"}
	}
	val := []byte("value")
	m := New()
	i := 0
	perKey := testing.AllocsPerRun(n, func() {
		m.Apply(keys[i], kv.Cell{Value: val, LSN: wal.MakeLSN(1, uint64(i+1))})
		i++
	})
	if perKey > 0.1 {
		t.Errorf("new key: %v allocs per Apply, want ≤ 0.1", perKey)
	}
	seq := uint64(i)
	replace := testing.AllocsPerRun(1000, func() {
		seq++
		m.Apply(keys[seq%uint64(n)], kv.Cell{Value: val, LSN: wal.MakeLSN(1, seq)})
	})
	if replace != 0 {
		t.Errorf("replaced key: %v allocs per Apply, want 0", replace)
	}
	if m.Len() != n+1 {
		t.Errorf("Len = %d, want %d", m.Len(), n+1)
	}
}

// TestMemtableArenaConcurrent applies keys across many chunk boundaries while
// readers run Get and Ascend, then reads every key back after Seal. A chunk
// handed out twice, or a node reused, shows as a lost or wrong value (or, under
// -race, as a race between a writer and a reader).
func TestMemtableArenaConcurrent(t *testing.T) {
	const writers, perWriter = 4, 700 // 2 800 keys: chunks of 32, 64, … 1 024, then a second of 1 024
	m := New()
	key := func(w, i int) kv.Key { return kv.Key{Row: fmt.Sprintf("r%05d", i*writers+w), Col: "c"} }
	value := func(w, i int) []byte { return []byte(fmt.Sprintf("v-%d-%d", w, i)) }

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				m.Get(key(0, perWriter/2))
				prev := kv.Key{}
				m.Ascend(func(e kv.Entry) bool {
					if e.Key.Less(prev) {
						t.Errorf("Ascend out of order: %v after %v", e.Key, prev)
						return false
					}
					prev = e.Key
					return true
				})
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				m.Apply(key(w, i), kv.Cell{Value: value(w, i), LSN: wal.MakeLSN(1, uint64(i*writers+w+1))})
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	wg.Wait()

	m.Seal()
	if m.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", m.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			c, ok := m.Get(key(w, i))
			if !ok || !bytes.Equal(c.Value, value(w, i)) || c.LSN != wal.MakeLSN(1, uint64(i*writers+w+1)) {
				t.Fatalf("Get(%v) = %q, %v, %v; want %q", key(w, i), c.Value, c.LSN, ok, value(w, i))
			}
		}
	}
	n := 0
	m.Ascend(func(e kv.Entry) bool {
		if want := []byte(fmt.Sprintf("v-%d-%d", n%writers, n/writers)); !bytes.Equal(e.Cell.Value, want) {
			t.Fatalf("entry %d (%v) = %q, want %q", n, e.Key, e.Cell.Value, want)
		}
		n++
		return true
	})
	if n != writers*perWriter {
		t.Errorf("Ascend after Seal yielded %d entries, want %d", n, writers*perWriter)
	}
}
