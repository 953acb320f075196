package storage

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"spinnaker/internal/kv"
	"spinnaker/internal/sstable"
	"spinnaker/internal/wal"
)

// TestCompactionDroppingEveryEntryInstallsNothing: a round whose every
// winner is a collected tombstone leaves no table behind — not a zero-entry
// one that reads as data — in memory, in the store, or after a reopen.
func TestCompactionDroppingEveryEntryInstallsNothing(t *testing.T) {
	e, cfg := newTestEngine(t)
	put(e, "r", "c", "v", 1)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Apply(kv.Entry{Key: kv.Key{Row: "r", Col: "c"},
		Cell: kv.Cell{Deleted: true, LSN: wal.MakeLSN(1, 2), Version: 2}})
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	inputs := e.TableBytes()
	if err := e.CompactAll(sstable.DropAllTombstones); err != nil {
		t.Fatal(err)
	}
	if n, m := len(e.Tables()), len(e.EntriesSince(0)); n != 0 || m != 0 {
		t.Fatalf("after a round that dropped every entry: %d tables, %d entries", n, m)
	}
	if _, compacts, _ := e.Stats(); compacts != 1 {
		t.Errorf("compacts = %d, want the round counted", compacts)
	}
	if _, compacted, read := e.ByteStats(); compacted != 0 || read != inputs {
		t.Errorf("ByteStats compacted/read = %d/%d, want 0/%d", compacted, read, inputs)
	}
	if ids, _ := cfg.Tables.List(); len(ids) != 0 {
		t.Errorf("store still holds %v", ids)
	}
	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, m := len(e2.Tables()), len(e2.EntriesSince(0)); n != 0 || m != 0 {
		t.Fatalf("after reopen: %d tables, %d entries", n, m)
	}
}

// TestEngineByteStatsCountBlobs: the write-amplification counters equal the
// summed sizes of the blobs flushes wrote, compaction wrote, and compaction
// read.
func TestEngineByteStatsCountBlobs(t *testing.T) {
	e, _ := newTestEngine(t)
	var flushed, compacted, read int64
	seq, rounds := uint64(0), 0
	for round := 0; round < 24; round++ {
		for i := 0; i < 16; i++ {
			seq++
			put(e, fmt.Sprintf("row%02d", (round*7+i)%40), "c", fmt.Sprintf("value-%d", seq), seq)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		flushed += int64(len(e.Tables()[0].Blob()))
		before := e.Tables()
		did, err := e.CompactOnce(0)
		if err != nil {
			t.Fatal(err)
		}
		if did {
			rounds++
			after := e.Tables()
			live := make(map[*sstable.Table]bool)
			for _, tb := range after {
				live[tb] = true
			}
			for _, tb := range before {
				if !live[tb] {
					read += int64(len(tb.Blob()))
				}
				delete(live, tb)
			}
			for tb := range live {
				compacted += int64(len(tb.Blob()))
			}
		}
		f, c, r := e.ByteStats()
		if f != flushed || c != compacted || r != read {
			t.Fatalf("round %d: ByteStats = %d/%d/%d, blobs flushed/compacted/read %d/%d/%d", round, f, c, r, flushed, compacted, read)
		}
	}
	if rounds == 0 {
		t.Fatal("no compaction round ran")
	}
}

// TestSpaceAmplificationBounded pins the full-merge rule. Under uniform
// overwrites of a fixed key set, after every MaybeFlush the tables newer
// than the oldest hold fewer data bytes than it, so the live tables never
// exceed two full copies of the data plus one flush, and the table count
// stays bounded. Under append-only writes the oldest table at least doubles
// at each full merge, so there are O(log(rows / flush)) of them.
func TestSpaceAmplificationBounded(t *testing.T) {
	const keys, perRound, rounds = 512, 64, 80
	value := bytes.Repeat([]byte("v"), 100)
	row := func(i int) string { return fmt.Sprintf("row%06d", i) }
	newEngine := func(t *testing.T) *Engine {
		e, err := Open(Config{
			Tables:     sstable.NewMemTableStore(),
			Meta:       wal.NewMemMetaStore(),
			FlushBytes: 1 << 30, // flushed by hand once per round
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// step flushes one round's writes and runs MaybeFlush, returning the
	// flushed table's blob size and the table set before and after.
	step := func(t *testing.T, e *Engine) (flushBlob int64, before, after []*sstable.Table) {
		t.Helper()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		before = e.Tables()
		if _, _, err := e.MaybeFlush(0); err != nil {
			t.Fatal(err)
		}
		return int64(len(before[0].Blob())), before, e.Tables()
	}

	t.Run("overwrite", func(t *testing.T) {
		e := newEngine(t)
		b := sstable.NewBuilder()
		for i := 0; i < keys; i++ {
			b.Add(kv.Entry{Key: kv.Key{Row: row(i), Col: "c"}, Cell: kv.Cell{Value: value, LSN: 1, Version: 1}})
		}
		fullCopy := int64(len(b.Finish()))
		rng := rand.New(rand.NewSource(29))
		seq, maxFlush := uint64(0), int64(0)
		for round := 0; round < rounds; round++ {
			for i := 0; i < perRound; i++ {
				seq++
				e.Apply(kv.Entry{Key: kv.Key{Row: row(rng.Intn(keys)), Col: "c"},
					Cell: kv.Cell{Value: value, LSN: wal.MakeLSN(1, seq), Version: seq}})
			}
			flushBlob, _, tables := step(t, e)
			maxFlush = max(maxFlush, flushBlob)
			newer := 0
			for _, tb := range tables[:len(tables)-1] {
				newer += tb.Bytes()
			}
			if oldest := tables[len(tables)-1].Bytes(); len(tables) > 1 && newer >= oldest {
				t.Fatalf("round %d: newer tables hold %d data bytes, the oldest %d", round, newer, oldest)
			}
			if got, bound := e.TableBytes(), 2*fullCopy+maxFlush; got > bound {
				t.Fatalf("round %d: %d table bytes in %d tables, bound 2×%d + %d", round, got, len(tables), fullCopy, maxFlush)
			}
			if len(tables) > e.cfg.MaxTables+1 {
				t.Fatalf("round %d: %d tables, MaxTables %d", round, len(tables), e.cfg.MaxTables)
			}
		}
	})

	t.Run("append-only", func(t *testing.T) {
		e := newEngine(t)
		seq, fullMerges, oldest := uint64(0), 0, 0
		for round := 0; round < rounds; round++ {
			for i := 0; i < perRound; i++ {
				seq++
				e.Apply(kv.Entry{Key: kv.Key{Row: row(int(seq)), Col: "c"},
					Cell: kv.Cell{Value: value, LSN: wal.MakeLSN(1, seq), Version: seq}})
			}
			_, before, after := step(t, e)
			now := after[len(after)-1].Bytes()
			if now < oldest {
				t.Fatalf("round %d: the oldest table shrank %d → %d", round, oldest, now)
			}
			if len(before) > 1 && len(after) == 1 {
				fullMerges++
				if now < 2*oldest {
					t.Fatalf("round %d: full merge grew the oldest table %d → %d, want ≥ 2×", round, oldest, now)
				}
			}
			oldest = now
		}
		if limit := bits.Len(rounds) + 1; fullMerges == 0 || fullMerges > limit {
			t.Fatalf("%d full merges over %d flushes, want 1..%d", fullMerges, rounds, limit)
		}
	})
}

// TestCompactionMatchesModel drives seeded random sequences of puts,
// deletes, flushes, MaybeFlush rounds and a rising tombstone-GC watermark,
// and after every step checks the engine against a map of each key's newest
// cell: Get and GetRow serve the newest live cell and never resurrect a
// deleted one, and EntriesSince(watermark) holds exactly the cells newer
// than the watermark, so no tombstone above it is ever dropped.
func TestCompactionMatchesModel(t *testing.T) {
	const rows, cols, steps = 10, 4, 400
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	collected := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, err := Open(Config{
			Tables:     sstable.NewMemTableStore(),
			Meta:       wal.NewMemMetaStore(),
			FlushBytes: 1 << 10,
			MaxTables:  3,
		})
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[kv.Key]kv.Cell)
		var seq uint64
		var gc wal.LSN
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(20); {
			case op < 12:
				seq++
				key := kv.Key{Row: fmt.Sprintf("r%d", rng.Intn(rows)), Col: fmt.Sprintf("c%d", rng.Intn(cols))}
				// A cell's version is its write's LSN, as the
				// replication layer sets it (checkModel asserts every
				// served cell keeps the pair).
				cell := kv.Cell{LSN: wal.MakeLSN(1, seq), Version: uint64(wal.MakeLSN(1, seq))}
				if rng.Intn(3) == 0 {
					cell.Deleted = true
				} else {
					cell.Value = bytes.Repeat([]byte{byte(seq)}, rng.Intn(64))
				}
				e.Apply(kv.Entry{Key: key, Cell: cell})
				model[key] = cell
			case op < 14:
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			case op < 16:
				gc = wal.MakeLSN(1, gc.Seq()+uint64(rng.Int63n(int64(seq-gc.Seq()+1))))
			default:
				if _, _, err := e.MaybeFlush(gc); err != nil {
					t.Fatal(err)
				}
			}
			checkModel(t, e, model, gc, fmt.Sprintf("seed %d step %d", seed, step))
		}
		for _, ent := range e.EntriesSince(0) {
			delete(model, ent.Key)
		}
		for _, c := range model {
			if c.Deleted {
				collected++
			}
		}
	}
	if collected == 0 {
		t.Fatal("no tombstone was ever collected: the test did not exercise tombstone GC")
	}
}

func checkModel(t *testing.T, e *Engine, model map[kv.Key]kv.Cell, gc wal.LSN, where string) {
	t.Helper()
	same := func(a, b kv.Cell) bool {
		return a.Deleted == b.Deleted && a.Version == b.Version && a.LSN == b.LSN && bytes.Equal(a.Value, b.Value)
	}
	paired := func(what string, c kv.Cell) {
		if c.Version != uint64(c.LSN) {
			t.Fatalf("%s: %s served version %d at LSN %s", where, what, c.Version, c.LSN)
		}
	}
	liveCols := make(map[string][]kv.Entry) // every written row → its live columns
	above := 0                              // cells newer than the watermark
	for key, want := range model {
		got, ok := e.Get(key)
		if ok {
			paired("Get", got)
		}
		switch {
		case !want.Deleted && (!ok || !same(got, want)):
			t.Fatalf("%s: Get(%v) = %+v,%v, want %+v", where, key, got, ok, want)
		case want.Deleted && want.LSN > gc && (!ok || !same(got, want)):
			t.Fatalf("%s: Get(%v) = %+v,%v, want the tombstone %+v above watermark %s", where, key, got, ok, want, gc)
		case want.Deleted && ok && !same(got, want):
			t.Fatalf("%s: Get(%v) = %+v, want the tombstone %+v or nothing (resurrection)", where, key, got, want)
		}
		cols := liveCols[key.Row]
		if !want.Deleted {
			cols = append(cols, kv.Entry{Key: key, Cell: want})
		}
		liveCols[key.Row] = cols
		if want.LSN > gc {
			above++
		}
	}
	for row, want := range liveCols {
		sortEntries(want)
		got := e.GetRow(row)
		if len(got) != len(want) {
			t.Fatalf("%s: GetRow(%s) = %d columns, want %d", where, row, len(got), len(want))
		}
		for i := range got {
			paired("GetRow", got[i].Cell)
			if got[i].Key != want[i].Key || !same(got[i].Cell, want[i].Cell) {
				t.Fatalf("%s: GetRow(%s)[%d] = %+v, want %+v", where, row, i, got[i], want[i])
			}
		}
	}
	since := e.EntriesSince(gc)
	if len(since) != above {
		t.Fatalf("%s: EntriesSince(%s) = %d entries, want %d", where, gc, len(since), above)
	}
	for _, ent := range since {
		paired("EntriesSince", ent.Cell)
		if want, ok := model[ent.Key]; !ok || want.LSN <= gc || !same(ent.Cell, want) {
			t.Fatalf("%s: EntriesSince(%s) yields %+v, want %+v", where, gc, ent, want)
		}
	}
}
