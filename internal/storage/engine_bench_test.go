package storage

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spinnaker/internal/kv"
	"spinnaker/internal/sstable"
	"spinnaker/internal/wal"
)

// benchEngine builds an engine with `tables` SSTables of `perTable` keys
// each (disjoint generations of the same key space when overlap is set,
// disjoint key ranges otherwise).
func benchEngine(b testing.TB, tables, perTable int, overlap bool) *Engine {
	b.Helper()
	e, err := Open(Config{
		Tables:     sstable.NewMemTableStore(),
		Meta:       wal.NewMemMetaStore(),
		FlushBytes: 1 << 30, // manual flushes only
		MaxTables:  1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	seq := uint64(0)
	for t := 0; t < tables; t++ {
		for i := 0; i < perTable; i++ {
			seq++
			row := fmt.Sprintf("t%02d-row%06d", t, i)
			if overlap {
				row = fmt.Sprintf("row%06d", i)
			}
			e.Apply(kv.Entry{
				Key:  kv.Key{Row: row, Col: "c"},
				Cell: kv.Cell{Value: []byte("0123456789abcdef"), LSN: wal.MakeLSN(1, seq), Version: seq},
			})
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkEngineGetHit measures point reads of present keys across a
// deep table stack (bloom + key-range pruning keeps probes near 1).
func BenchmarkEngineGetHit(b *testing.B) {
	const tables, perTable = 8, 4096
	e := benchEngine(b, tables, perTable, false)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := kv.Key{Row: fmt.Sprintf("t%02d-row%06d", i%tables, (i*31)%perTable), Col: "c"}
			if _, ok := e.Get(k); !ok {
				b.Fatal("present key missed")
			}
			i++
		}
	})
}

// TestEngineGetAllocs: a point read that walks the memtable, then the bloom
// filters of a stack of tables, and lands in the oldest table allocates
// nothing; the cell it returns aliases that table's blob. Nor does a miss
// every filter answers.
func TestEngineGetAllocs(t *testing.T) {
	const tables, perTable = 4, 512
	e := benchEngine(t, tables, perTable, false)
	oldest := kv.Key{Row: fmt.Sprintf("t%02d-row%06d", 0, perTable/2), Col: "c"}
	absent := kv.Key{Row: fmt.Sprintf("t%02d-row%06dx", 1, perTable/2), Col: "c"}
	var (
		cell kv.Cell
		ok   bool
	)
	if n := testing.AllocsPerRun(200, func() { cell, ok = e.Get(oldest) }); n != 0 || !ok || len(cell.Value) != 16 {
		t.Errorf("hit in the oldest of %d tables: %v allocs/op (want 0), found=%v", tables, n, ok)
	}
	if n := testing.AllocsPerRun(200, func() { _, ok = e.Get(absent) }); n != 0 || ok {
		t.Errorf("miss: %v allocs/op (want 0), found=%v", n, ok)
	}
}

// BenchmarkEngineGetMiss measures point reads of absent keys — the case
// bloom filters exist for (pre-PR every table was probed).
func BenchmarkEngineGetMiss(b *testing.B) {
	const tables, perTable = 8, 4096
	e := benchEngine(b, tables, perTable, false)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := kv.Key{Row: fmt.Sprintf("t%02d-row%06d", i%tables, (i*31)%perTable), Col: "absent"}
			if _, ok := e.Get(k); ok {
				b.Fatal("absent key found")
			}
			i++
		}
	})
}

// BenchmarkEngineFlush measures one seal + SSTable build + manifest swap.
func BenchmarkEngineFlush(b *testing.B) {
	e, err := Open(Config{
		Tables:     sstable.NewMemTableStore(),
		Meta:       wal.NewMemMetaStore(),
		FlushBytes: 1 << 30,
		MaxTables:  1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	seq := uint64(0)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		for i := 0; i < 2048; i++ {
			seq++
			e.Apply(kv.Entry{
				Key:  kv.Key{Row: fmt.Sprintf("row%06d", i), Col: "c"},
				Cell: kv.Cell{Value: []byte("0123456789abcdef"), LSN: wal.MakeLSN(1, seq), Version: seq},
			})
		}
		b.StartTimer()
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCompactRound measures one compaction round over 4
// similar-sized overlapping tables (a full merge: the three newer outweigh
// the oldest).
func BenchmarkEngineCompactRound(b *testing.B) {
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		e := benchEngine(b, 4, 4096, true)
		b.StartTimer()
		did, err := e.CompactOnce(sstable.DropAllTombstones)
		if err != nil {
			b.Fatal(err)
		}
		if !did {
			b.Fatal("no compaction round ran")
		}
	}
}

// BenchmarkEngineGetDuringCompaction measures point-read latency while a
// compaction churns in the background — the pre-PR engine froze reads for
// the duration of every merge.
func BenchmarkEngineGetDuringCompaction(b *testing.B) {
	const tables, perTable = 8, 4096
	e := benchEngine(b, tables, perTable, true)
	stop := make(chan struct{})
	done := make(chan struct{})
	var rounds atomic.Int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if did, err := e.CompactOnce(0); err != nil {
				b.Error(err)
				return
			} else if did {
				rounds.Add(1)
			}
			// Re-split the big table back into churn fodder.
			if _, _, tbls := e.Stats(); tbls <= 2 {
				seq := uint64(1 << 20)
				for t := 0; t < 4; t++ {
					for i := 0; i < perTable; i++ {
						seq++
						e.Apply(kv.Entry{
							Key:  kv.Key{Row: fmt.Sprintf("row%06d", i), Col: "c"},
							Cell: kv.Cell{Value: []byte("0123456789abcdef"), LSN: wal.MakeLSN(2, seq), Version: seq},
						})
					}
					if err := e.Flush(); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := kv.Key{Row: fmt.Sprintf("row%06d", (i*31)%perTable), Col: "c"}
			if _, ok := e.Get(k); !ok {
				b.Fatal("present key missed during compaction")
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(rounds.Load()), "compactions")
}
