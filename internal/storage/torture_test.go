package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinnaker/internal/kv"
	"spinnaker/internal/sstable"
	"spinnaker/internal/wal"
)

// TestEngineConcurrentMaintenanceTorture races a committed-write applier
// and a pack of readers against continuous flushes and incremental
// compactions (run under -race in CI). Each key's last committed state is
// published through a seqlock-style atomic: readers only judge a read when
// the state was stable around it, and then the engine must serve exactly
// the committed cell — no missed committed write, no stale version, and no
// dropped-then-resurrected delete, no matter which layer (active memtable,
// sealed memtable, SSTable before/after compaction) currently holds it.
func TestEngineConcurrentMaintenanceTorture(t *testing.T) {
	cfg := Config{
		Tables:     sstable.NewMemTableStore(),
		Meta:       wal.NewMemMetaStore(),
		FlushBytes: 8 << 10,
		MaxTables:  3,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const keys = 48
	duration := 2 * time.Second
	if testing.Short() {
		duration = 400 * time.Millisecond
	}

	// state[k] packs the key's last committed op: version<<2 | del<<1 |
	// busy. The applier sets busy (with the new op) before Apply and
	// clears it after, so a reader observing identical, non-busy values
	// around its read knows exactly what the engine must serve.
	state := make([]atomic.Uint64, keys)
	pack := func(ver uint64, del bool) uint64 {
		p := ver << 2
		if del {
			p |= 2
		}
		return p
	}
	unpack := func(p uint64) (ver uint64, del, busy bool) {
		return p >> 2, p&2 != 0, p&1 != 0
	}
	keyOf := func(k int) kv.Key { return kv.Key{Row: fmt.Sprintf("k%03d", k), Col: "c"} }
	// A cell's version is its write's LSN, as the replication layer sets
	// it; every cell read back must still pair the two.
	versionOf := func(seq uint64) uint64 { return uint64(wal.MakeLSN(1, seq)) }

	stopBG := make(chan struct{}) // applier + maintenance
	stop := make(chan struct{})   // readers
	var bgWG, wg sync.WaitGroup
	var fail atomic.Value // first failure message

	report := func(format string, args ...any) {
		fail.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}

	// Applier: one goroutine, LSN-ordered, exactly like the replication
	// layer's commit path. Roughly every third op per key is a delete.
	// lastSeq is published BEFORE the apply, so at any moment it is an
	// upper bound on the LSNs the engine can serve (a reader snapshotting
	// it after a scan never sees a "future" entry).
	var lastSeq atomic.Uint64
	applyOp := func(seq uint64) {
		value := []byte("0123456789abcdef0123456789abcdef")
		k := int(seq) % keys
		del := seq%3 == 0
		state[k].Store(pack(seq, del) | 1)
		lastSeq.Store(seq)
		cell := kv.Cell{Version: versionOf(seq), LSN: wal.MakeLSN(1, seq), Deleted: del}
		if !del {
			cell.Value = value
		}
		e.Apply(kv.Entry{Key: keyOf(k), Cell: cell})
		state[k].Store(pack(seq, del))
	}
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stopBG:
				return
			default:
			}
			applyOp(seq)
		}
	}()

	// Maintenance: continuous flush + compaction rounds, with the most
	// aggressive locally-safe tombstone GC (everything applied so far).
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopBG:
				return
			default:
			}
			gc := wal.LSN(0)
			if i%2 == 0 {
				gc = e.AppliedLSN() // alternate: GC everything vs nothing
			}
			if _, _, err := e.MaybeFlush(gc); err != nil {
				report("maintenance: %v", err)
				return
			}
			if i%7 == 0 {
				if err := e.Flush(); err != nil {
					report("flush: %v", err)
					return
				}
			}
			if i%5 == 0 {
				if _, err := e.CompactOnce(gc); err != nil {
					report("compact: %v", err)
					return
				}
			}
		}
	}()

	// Readers: point gets, row gets, and catch-up scans.
	var conclusive atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i*7 + r*13) % keys
				before := state[k].Load()
				verB, delB, busyB := unpack(before)
				switch i % 3 {
				case 0:
					c, ok := e.Get(keyOf(k))
					after := state[k].Load()
					if ok && c.Version != uint64(c.LSN) {
						report("key %d: Get = version %d at LSN %s", k, c.Version, c.LSN)
					}
					if busyB || after != before || verB == 0 {
						continue // unstable around the read: inconclusive
					}
					conclusive.Add(1)
					verB = versionOf(verB)
					switch {
					case delB && ok && !c.Deleted:
						report("key %d: deleted at v%d but Get returned live v%d (resurrection)", k, verB, c.Version)
					case delB && ok && c.Version != verB:
						report("key %d: tombstone version %d, want %d", k, c.Version, verB)
					case !delB && !ok:
						report("key %d: committed write v%d missed by Get", k, verB)
					case !delB && ok && (c.Deleted || c.Version != verB):
						report("key %d: Get = v%d deleted=%v, want live v%d", k, c.Version, c.Deleted, verB)
					}
				case 1:
					row := e.GetRow(keyOf(k).Row)
					after := state[k].Load()
					for _, ent := range row {
						if ent.Cell.Version != uint64(ent.Cell.LSN) {
							report("key %d: GetRow = version %d at LSN %s", k, ent.Cell.Version, ent.Cell.LSN)
						}
					}
					if busyB || after != before || verB == 0 {
						continue
					}
					conclusive.Add(1)
					verB = versionOf(verB)
					switch {
					case delB && len(row) != 0:
						report("key %d: deleted at v%d but GetRow returned %d entries (resurrection)", k, verB, len(row))
					case !delB && len(row) != 1:
						report("key %d: committed write v%d missed by GetRow (%d entries)", k, verB, len(row))
					case !delB && row[0].Cell.Version != verB:
						report("key %d: GetRow = v%d, want v%d", k, row[0].Cell.Version, verB)
					}
				default:
					// Catch-up scan from a trailing LSN: must never
					// error and never yield an entry newer than the
					// applier has issued. The bound is loaded after
					// the scan — every entry the scan saw was applied
					// before that load, and lastSeq is published
					// pre-apply.
					last := lastSeq.Load()
					after := wal.LSN(0)
					if last > 100 {
						after = wal.MakeLSN(1, last-100)
					}
					ents := e.EntriesSince(after)
					bound := wal.MakeLSN(1, lastSeq.Load())
					for _, ent := range ents {
						if ent.Cell.LSN > bound {
							report("EntriesSince yielded unissued LSN %s > %s", ent.Cell.LSN, bound)
						}
						if ent.Cell.Version != uint64(ent.Cell.LSN) {
							report("EntriesSince yielded version %d at LSN %s", ent.Cell.Version, ent.Cell.LSN)
						}
					}
				}
			}
		}(r)
	}

	time.Sleep(duration)
	close(stopBG)
	bgWG.Wait()

	// Phase 2, deterministic: with the readers still racing, the main
	// goroutine applies several full generations and drives explicit
	// flushes and compaction rounds over them. Phase 1's organic
	// maintenance depends on scheduler luck under a loaded host; this
	// phase guarantees reads race real flushes and real full merges
	// regardless.
	for gen := 0; gen < 5; gen++ {
		base := lastSeq.Load()
		for k := 0; k < keys; k++ {
			applyOp(base + 1 + uint64(k))
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CompactOnce(e.AppliedLSN()); err != nil {
			t.Fatal(err)
		}
	}

	close(stop)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	if conclusive.Load() < 100 {
		t.Fatalf("only %d conclusive checks; torture did not exercise the engine", conclusive.Load())
	}
	flushes, compacts, tables := e.Stats()
	if flushes < 5 || compacts == 0 {
		t.Fatalf("maintenance idle during torture: flushes=%d compacts=%d tables=%d", flushes, compacts, tables)
	}

	// Quiesced final check: every key serves exactly its last committed
	// state, then survives a full compaction at the max watermark.
	verify := func(stage string) {
		for k := 0; k < keys; k++ {
			ver, del, _ := unpack(state[k].Load())
			if ver == 0 {
				continue
			}
			ver = versionOf(ver)
			c, ok := e.Get(keyOf(k))
			if del {
				if ok && !c.Deleted {
					t.Fatalf("%s: key %d resurrected (v%d, want deleted v%d)", stage, k, c.Version, ver)
				}
				continue
			}
			if !ok || c.Deleted || c.Version != ver {
				t.Fatalf("%s: key %d = v%d deleted=%v ok=%v, want live v%d", stage, k, c.Version, c.Deleted, ok, ver)
			}
		}
	}
	verify("quiesced")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.CompactAll(e.AppliedLSN()); err != nil {
		t.Fatal(err)
	}
	verify("after full compaction")
}
