// Package storage implements the per-replica LSM storage engine of a
// Spinnaker node (paper §4.1): committed writes are applied to a memtable,
// which is periodically flushed to immutable SSTables; smaller SSTables are
// merged into larger ones in the background to garbage-collect deleted rows
// and improve read performance.
//
// The engine stores only *committed* state: the replication layer applies a
// write here when it commits (leader) or when a commit message covers it
// (follower). The memtable is volatile — a crash loses it and local
// recovery rebuilds it by replaying the log from the last checkpoint
// (paper §6.1). SSTables and the manifest survive crashes.
//
// Maintenance is concurrent and incremental: a flush seals the active
// memtable onto an immutable queue and builds its SSTable outside the
// engine lock (applies and reads proceed against the new active memtable,
// the sealed queue, and the current table set throughout), taking the write
// lock only to swap the table set and persist the manifest. Compaction runs
// off-lock too, one round at a time with a short swap. Once the tables
// newer than the oldest hold at least as many data bytes as it does, the
// next round merges every table into one, so a range's tables stay within
// about twice its data; between those full merges, size-tiered rounds merge
// a few adjacent, similar-sized tables to bound the table count.
// Tombstones are garbage-collected only by a round that includes the oldest
// table — in practice the full merges — and only at or below the cohort
// tombstone-GC watermark the replication layer passes in (the minimum
// committed LSN across cohort members): dropping a newer tombstone would
// make EntriesSince-based catch-up (§6.1) incomplete and resurrect the
// deleted row on a lagging follower.
package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"spinnaker/internal/kv"
	"spinnaker/internal/memtable"
	"spinnaker/internal/sstable"
	"spinnaker/internal/wal"
)

// Config controls an Engine.
type Config struct {
	// Tables is the stable store for SSTable blobs.
	Tables sstable.TableStore
	// Meta holds the manifest (live table ids + checkpoint LSN).
	Meta wal.MetaStore
	// Cohort namespaces the manifest key; a node runs one engine per
	// cohort over shared stores.
	Cohort uint32
	// FlushBytes is the memtable size that triggers a flush from
	// MaybeFlush. Zero means 4 MiB.
	FlushBytes int64
	// MaxTables triggers an incremental compaction round from MaybeFlush
	// when exceeded. Zero means 8.
	MaxTables int
	// CompactFanIn bounds how many tables one compaction round merges.
	// Zero means 4.
	CompactFanIn int
}

// Engine is a single key-range replica's storage.
type Engine struct {
	cfg Config

	// mu guards the layered view — active memtable, sealed queue, table
	// set — and the manifest fields. Maintenance holds it only for the
	// short seal/swap critical sections; SSTable builds and blob-store
	// I/O run outside it, so applies and reads proceed concurrently with
	// flushes and compactions.
	mu         sync.RWMutex
	mem        *memtable.Memtable
	sealed     []*memtable.Memtable // oldest → newest, awaiting flush
	tables     []*sstable.Table     // newest first
	nextID     uint64
	checkpoint wal.LSN
	flushes    int64
	compacts   int64
	closed     bool // maintenance permanently disabled (Close)
	// Blob bytes written by flushes and by compaction, and read by
	// compaction (ByteStats).
	flushedBytes, compactedBytes, compactReadBytes int64

	// maintMu serializes maintenance (one flush or compaction at a time);
	// reads and applies never take it.
	maintMu sync.Mutex

	applied   atomic.Uint64 // highest applied LSN
	probes    atomic.Int64  // table lookups considered by point reads
	pruned    atomic.Int64  // table lookups skipped by bloom/key-range tags
	maintErrs atomic.Int64  // failed maintenance attempts (see MaybeFlush)
	lastMaint atomic.Value  // most recent maintenance error (error)
}

func manifestKey(cohort uint32) string { return fmt.Sprintf("manifest/%d", cohort) }

// Open loads (or initializes) the engine state from its stores, and sweeps
// blob ids the manifest does not reference: a crash between a blob Put and
// the manifest save (or between a compaction's manifest save and the
// removal of its inputs) orphans blobs, and Open is the recovery point
// where they are reclaimed.
func Open(cfg Config) (*Engine, error) {
	if cfg.Tables == nil || cfg.Meta == nil {
		return nil, fmt.Errorf("storage: Tables and Meta stores are required")
	}
	if cfg.FlushBytes <= 0 {
		cfg.FlushBytes = 4 << 20
	}
	if cfg.MaxTables <= 0 {
		cfg.MaxTables = 8
	}
	if cfg.CompactFanIn < 2 {
		cfg.CompactFanIn = 4
	}
	e := &Engine{cfg: cfg, mem: memtable.New()}

	referenced := make(map[uint64]bool)
	raw, ok, err := cfg.Meta.Get(manifestKey(cfg.Cohort))
	if err != nil {
		return nil, fmt.Errorf("storage: load manifest: %w", err)
	}
	if ok {
		man, err := decodeManifest(raw)
		if err != nil {
			return nil, err
		}
		e.nextID = man.nextID
		e.checkpoint = man.checkpoint
		e.applied.Store(uint64(man.checkpoint))
		for _, id := range man.tableIDs {
			blob, err := cfg.Tables.Get(id)
			if err != nil {
				return nil, fmt.Errorf("storage: open table %d: %w", id, err)
			}
			t, err := sstable.Open(id, blob)
			if err != nil {
				return nil, fmt.Errorf("storage: parse table %d: %w", id, err)
			}
			referenced[id] = true
			// manifest lists oldest→newest; keep newest first.
			e.tables = append([]*sstable.Table{t}, e.tables...)
		}
	}
	// Orphan sweep. Best-effort: a failed List or Remove leaves the
	// orphan for the next Open, never fails startup.
	if ids, err := cfg.Tables.List(); err == nil {
		for _, id := range ids {
			if !referenced[id] {
				_ = cfg.Tables.Remove(id)
			}
		}
	}
	return e, nil
}

type manifest struct {
	nextID     uint64
	checkpoint wal.LSN
	tableIDs   []uint64 // oldest → newest
}

func encodeManifest(m manifest) []byte {
	buf := make([]byte, 8+8+4+8*len(m.tableIDs))
	binary.LittleEndian.PutUint64(buf[0:8], m.nextID)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m.checkpoint))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(m.tableIDs)))
	for i, id := range m.tableIDs {
		binary.LittleEndian.PutUint64(buf[20+8*i:], id)
	}
	return buf
}

func decodeManifest(b []byte) (manifest, error) {
	var m manifest
	if len(b) < 20 {
		return m, fmt.Errorf("storage: manifest too short (%d bytes)", len(b))
	}
	m.nextID = binary.LittleEndian.Uint64(b[0:8])
	m.checkpoint = wal.LSN(binary.LittleEndian.Uint64(b[8:16]))
	// Validate the count against the payload before trusting it: a
	// corrupt count would otherwise drive a huge allocation, and the
	// 20+8*n bound computed in int can overflow on 32-bit platforms.
	n := uint64(binary.LittleEndian.Uint32(b[16:20]))
	if n > (uint64(len(b))-20)/8 {
		return m, fmt.Errorf("storage: manifest truncated: %d table ids exceed %d payload bytes", n, len(b)-20)
	}
	for i := uint64(0); i < n; i++ {
		m.tableIDs = append(m.tableIDs, binary.LittleEndian.Uint64(b[20+8*i:]))
	}
	return m, nil
}

// saveManifest persists a table set (newest first) and checkpoint. Callers
// hold maintMu — which makes them the sole mutator of the table set,
// checkpoint, and id counter — and commit the corresponding in-memory state
// only after this succeeds, so the durable manifest never references state
// the engine did not reach. The metadata write itself deliberately runs
// WITHOUT e.mu: on disk-backed stores it is a synchronous file write, and
// holding the engine lock across it would stall every read and apply.
func (e *Engine) saveManifest(nextID uint64, tables []*sstable.Table, checkpoint wal.LSN) error {
	m := manifest{nextID: nextID, checkpoint: checkpoint}
	for i := len(tables) - 1; i >= 0; i-- { // oldest → newest
		m.tableIDs = append(m.tableIDs, tables[i].ID())
	}
	return e.cfg.Meta.Put(manifestKey(e.cfg.Cohort), encodeManifest(m))
}

// Apply records a committed write. The replication layer calls it in LSN
// order within the cohort; applying the same entry twice is harmless
// (idempotent redo, paper §6.1). The read lock only excludes the flush
// path's memtable swap — the memtable itself is internally synchronized —
// so applies run concurrently with reads and with SSTable builds.
func (e *Engine) Apply(entry kv.Entry) {
	e.mu.RLock()
	e.mem.Apply(entry.Key, entry.Cell)
	e.mu.RUnlock()
	for {
		cur := e.applied.Load()
		if uint64(entry.Cell.LSN) <= cur || e.applied.CompareAndSwap(cur, uint64(entry.Cell.LSN)) {
			return
		}
	}
}

// AppliedLSN returns the highest LSN applied to the engine.
func (e *Engine) AppliedLSN() wal.LSN {
	return wal.LSN(e.applied.Load())
}

// Checkpoint returns the LSN through which all writes are captured in
// SSTables; local recovery replays the log from here (paper §6.1). It is
// also the engine's durable commit floor: the replication layer reports it
// to the cohort leader, whose tombstone-GC watermark is the minimum floor
// across members.
func (e *Engine) Checkpoint() wal.LSN {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.checkpoint
}

// layers snapshots the engine's read view. The returned slice headers are
// immutable (every mutation installs fresh slices), and memtables are
// internally synchronized, so callers read them without holding e.mu —
// long scans never block the maintenance swaps.
func (e *Engine) layers() (mem *memtable.Memtable, sealed []*memtable.Memtable, tables []*sstable.Table) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mem, e.sealed, e.tables
}

// Get returns the newest cell for key, including tombstones (the caller
// interprets Cell.Deleted). Layers are probed newest first — active
// memtable, sealed memtables, then tables pruned by bloom filter and
// key-range tags — and the first hit wins. A cell found in a table aliases
// that table's immutable blob (sstable.Table.Get); the result is read-only.
//
//spinnaker:aliases
//spinnaker:hotpath
func (e *Engine) Get(key kv.Key) (kv.Cell, bool) {
	mem, sealed, tables := e.layers()
	if c, ok := mem.Get(key); ok {
		return c, true
	}
	for i := len(sealed) - 1; i >= 0; i-- {
		if c, ok := sealed[i].Get(key); ok {
			return c, true
		}
	}
	// Batch the stats into one atomic add each at exit: per-table RMWs on
	// a shared cacheline would tax exactly the hot path the pruning is
	// there to speed up.
	var (
		cell            kv.Cell
		found           bool
		probed, prunedN int64
	)
	for _, t := range tables {
		probed++
		if !t.MayContain(key) {
			prunedN++
			continue
		}
		if cell, found = t.Get(key); found {
			break
		}
	}
	e.probes.Add(probed)
	e.pruned.Add(prunedN)
	return cell, found
}

// GetRow returns the newest cell of every live (non-deleted) column of row,
// in column order.
func (e *Engine) GetRow(row string) []kv.Entry {
	mem, sealed, tables := e.layers()
	newest := make(map[string]kv.Cell)
	var order []string
	consider := func(ent kv.Entry) {
		cur, ok := newest[ent.Key.Col]
		if !ok {
			newest[ent.Key.Col] = ent.Cell
			order = append(order, ent.Key.Col)
			return
		}
		if ent.Cell.Newer(cur) {
			newest[ent.Key.Col] = ent.Cell
		}
	}
	mem.AscendRow(row, func(ent kv.Entry) bool { consider(ent); return true })
	for i := len(sealed) - 1; i >= 0; i-- {
		sealed[i].AscendRow(row, func(ent kv.Entry) bool { consider(ent); return true })
	}
	for _, t := range tables {
		if !t.SpansRow(row) {
			continue
		}
		_ = t.AscendRow(row, func(ent kv.Entry) bool { consider(ent); return true })
	}
	var out []kv.Entry
	for _, col := range order {
		c := newest[col]
		if c.Deleted {
			continue
		}
		out = append(out, kv.Entry{Key: kv.Key{Row: row, Col: col}, Cell: c})
	}
	// order was insertion order over sorted sources; normalize.
	sortEntries(out)
	return out
}

func sortEntries(es []kv.Entry) {
	sort.Slice(es, func(i, j int) bool { return es[i].Key.Less(es[j].Key) })
}

// MemtableBytes returns the active memtable footprint (sealed memtables
// are already queued for flush and excluded from the flush trigger).
func (e *Engine) MemtableBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mem.Bytes()
}

// MaybeFlush flushes when the memtable exceeds the flush threshold (or a
// sealed memtable is still queued from an earlier failed attempt), then
// runs one compaction round when the tables newer than the oldest outweigh
// it (a full merge) or the table count exceeds MaxTables (a size tier),
// dropping tombstones at or below tombstoneGC when the round includes the
// oldest table. It reports which of the two actually ran — a flush that
// succeeded advances the checkpoint and must drive log truncation even if
// the compaction after it failed.
func (e *Engine) MaybeFlush(tombstoneGC wal.LSN) (flushed, compacted bool, err error) {
	e.mu.RLock()
	over := e.mem.Bytes() >= e.cfg.FlushBytes || len(e.sealed) > 0
	e.mu.RUnlock()
	if over {
		n, ferr := e.flush()
		flushed = n > 0
		err = ferr
	}
	e.mu.RLock()
	due := len(e.tables) > e.cfg.MaxTables || overlayHeavy(e.tables)
	e.mu.RUnlock()
	if due {
		did, cerr := e.compactRound(tombstoneGC, false, true)
		compacted = did
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		e.maintErrs.Add(1)
		e.lastMaint.Store(err)
	}
	return flushed, compacted, err
}

// MaintenanceErrors reports how many MaybeFlush attempts failed and the
// most recent failure. The flush daemon retries on its next tick rather
// than escalating, so a persistently failing blob store (full or
// read-only disk) surfaces here instead of vanishing.
func (e *Engine) MaintenanceErrors() (count int64, last error) {
	if v := e.lastMaint.Load(); v != nil {
		last = v.(error)
	}
	return e.maintErrs.Load(), last
}

// Close permanently disables maintenance on this engine, draining any
// round in flight before returning. A retired replica's engine must stop
// writing blobs and the manifest: a successor engine opened over the same
// per-cohort stores (a later re-join of the range) sweeps unreferenced
// blobs at Open and starts from a wiped manifest, and a late flush or
// compaction from the predecessor would overwrite that manifest with
// stale pre-departure tables — or persist references to blobs the sweep
// just removed. Reads and applies keep working on the in-memory state.
func (e *Engine) Close() {
	e.maintMu.Lock()
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.maintMu.Unlock()
}

// Flush captures the memtable into SSTables and advances the checkpoint to
// the flushed max LSN. An empty memtable is a no-op.
func (e *Engine) Flush() error {
	_, err := e.flush()
	return err
}

// flush seals the active memtable and drains the sealed queue oldest
// first, reporting how many SSTables were produced.
func (e *Engine) flush() (int, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, nil
	}
	if e.mem.Len() > 0 {
		e.mem.Seal()
		e.sealed = append(e.sealed, e.mem)
		e.mem = memtable.New()
	}
	e.mu.Unlock()

	n := 0
	for {
		did, err := e.flushOldestSealed()
		if err != nil {
			return n, err
		}
		if !did {
			return n, nil
		}
		n++
	}
}

// flushOldestSealed builds and installs one SSTable from the oldest sealed
// memtable. Applies are LSN-ordered, so each seal is an LSN cut: flushing
// oldest first keeps the invariant that every write at or below the
// checkpoint is captured in SSTables.
func (e *Engine) flushOldestSealed() (bool, error) {
	e.mu.Lock()
	if len(e.sealed) == 0 {
		e.mu.Unlock()
		return false, nil
	}
	seal := e.sealed[0]
	id := e.nextID
	e.nextID++
	nextID := e.nextID
	curTables := e.tables
	curCheckpoint := e.checkpoint
	e.mu.Unlock()

	// Build and store the SSTable off-lock: reads and applies proceed
	// against the sealed memtable (still in the read path) meanwhile. A
	// sealed memtable is sorted, unique and immutable, so it is written
	// straight from its skiplist.
	_, maxLSN := seal.LSNRange()
	blob := sstable.WriteSorted(seal.Ascend)
	if err := e.cfg.Tables.Put(id, blob); err != nil {
		// The sealed memtable stays queued; the id, if the Put partially
		// landed, is an orphan for the Open-time sweep.
		return false, fmt.Errorf("storage: flush: %w", err)
	}
	t, err := sstable.Open(id, blob)
	if err != nil {
		return false, fmt.Errorf("storage: flush reopen: %w", err)
	}

	// Persist before publishing, still off e.mu (holding maintMu, we are
	// the only mutator of the table set and checkpoint, so the computed
	// manifest cannot go stale): on a manifest failure the blob is an
	// orphan (swept at Open), the sealed memtable stays readable and
	// queued, and the checkpoint — which gates log truncation and the
	// cohort tombstone-GC floor — never runs ahead of the durable state.
	newTables := append([]*sstable.Table{t}, curTables...)
	newCheckpoint := curCheckpoint
	if maxLSN > newCheckpoint {
		newCheckpoint = maxLSN
	}
	if err := e.saveManifest(nextID, newTables, newCheckpoint); err != nil {
		return false, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables = newTables
	e.checkpoint = newCheckpoint
	// DropMemtable (crash simulation) may have discarded the sealed
	// queue while the build ran; only unlink the memtable we flushed.
	if len(e.sealed) > 0 && e.sealed[0] == seal {
		e.sealed = append([]*memtable.Memtable(nil), e.sealed[1:]...)
	}
	e.flushes++
	e.flushedBytes += int64(len(blob))
	return true, nil
}

// CompactOnce runs one compaction round if one is due — a full merge when
// the tables newer than the oldest outweigh it, else a size tier if a
// qualifying run of tables exists — dropping tombstones at or below
// tombstoneGC when the round includes the oldest table. It reports whether
// a round ran.
func (e *Engine) CompactOnce(tombstoneGC wal.LSN) (bool, error) {
	return e.compactRound(tombstoneGC, false, false)
}

// CompactAll merges every SSTable into one, dropping tombstones at or
// below tombstoneGC (pass sstable.DropAllTombstones only when no cohort
// member can still need them, e.g. after a durable cohort-wide purge).
func (e *Engine) CompactAll(tombstoneGC wal.LSN) error {
	_, err := e.compactRound(tombstoneGC, true, false)
	return err
}

// compactRound picks a run of adjacent tables (all of them when full or
// overlayHeavy; otherwise a size tier, falling back to the oldest tables
// when force is set), merges them off-lock, and swaps the merged table into
// the set. The run is always age-adjacent, so the newest-first probe order
// of Get stays correct, and tombstones are only dropped when the run
// includes the oldest table (nothing older remains to resurrect the deleted
// value). A round that drops every entry installs no table.
func (e *Engine) compactRound(tombstoneGC wal.LSN, full, force bool) (bool, error) {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()

	e.mu.RLock()
	closed := e.closed
	tables := e.tables
	e.mu.RUnlock()
	if closed {
		return false, nil
	}
	var run []*sstable.Table
	switch {
	case full || overlayHeavy(tables):
		if len(tables) <= 1 {
			return false, nil
		}
		run = tables
	default:
		start, end := pickTier(tables, e.cfg.CompactFanIn)
		if start < 0 {
			if !force || len(tables) < 2 {
				return false, nil
			}
			// Over budget with no similar-sized run: merge the oldest
			// tables so table count (and tombstone GC) still progresses.
			end = len(tables)
			start = end - e.cfg.CompactFanIn
			if start < 0 {
				start = 0
			}
		}
		run = tables[start:end]
	}
	dropBelow := wal.LSN(0)
	if run[len(run)-1] == tables[len(tables)-1] {
		dropBelow = tombstoneGC
	}

	// Merge and store off-lock; reads keep probing the input tables.
	blob, err := sstable.Compact(run, dropBelow)
	if err != nil {
		return false, fmt.Errorf("storage: compact: %w", err)
	}
	e.mu.Lock()
	id := e.nextID
	e.nextID++
	nextID := e.nextID
	checkpoint := e.checkpoint
	e.mu.Unlock()
	t, err := sstable.Open(id, blob)
	if err != nil {
		return false, fmt.Errorf("storage: compact open: %w", err)
	}
	// When every winner was a collected tombstone the round installs
	// nothing: an empty table would make Empty false and, as the oldest,
	// would be outweighed by every later flush.
	var out []*sstable.Table
	if t.Len() > 0 {
		if err := e.cfg.Tables.Put(id, blob); err != nil {
			return false, fmt.Errorf("storage: compact put: %w", err)
		}
		out = append(out, t)
	}
	var read int64
	for _, o := range run {
		read += int64(len(o.Blob()))
	}

	// Relocate the run in the snapshot. maintMu serializes all
	// maintenance, so the table set cannot have changed since; the
	// identity search is a cheap guard on that invariant — checked
	// against the live set below BEFORE the manifest commits — rather
	// than positional indexing that would corrupt the set if it broke.
	idx := -1
	for i, cur := range tables {
		if cur == run[0] {
			idx = i
			break
		}
	}
	if idx < 0 || idx+len(run) > len(tables) {
		_ = e.cfg.Tables.Remove(id)
		return false, fmt.Errorf("storage: compact lost its inputs (table set changed)")
	}
	newTables := make([]*sstable.Table, 0, len(tables)-len(run)+len(out))
	newTables = append(newTables, tables[:idx]...)
	newTables = append(newTables, out...)
	newTables = append(newTables, tables[idx+len(run):]...)
	e.mu.RLock()
	stale := len(e.tables) != len(tables) || (len(tables) > 0 && e.tables[0] != tables[0])
	e.mu.RUnlock()
	if stale {
		_ = e.cfg.Tables.Remove(id)
		return false, fmt.Errorf("storage: compact lost its inputs (table set changed)")
	}
	// Persist off e.mu (see saveManifest), then swap under a short lock.
	if err := e.saveManifest(nextID, newTables, checkpoint); err != nil {
		return false, err
	}
	e.mu.Lock()
	e.tables = newTables
	e.compacts++
	e.compactReadBytes += read
	if len(out) > 0 {
		e.compactedBytes += int64(len(blob))
	}
	e.mu.Unlock()

	// Remove the inputs only after the manifest no longer references
	// them; failures leave orphans for the Open-time sweep.
	for _, o := range run {
		_ = e.cfg.Tables.Remove(o.ID())
	}
	return true, nil
}

// overlayHeavy reports whether the tables newer than the oldest hold at
// least as many data bytes as it does; the next round then merges them all
// into it. That bounds a range's tables to about twice its data — the
// oldest table plus less than as much again above it — and, under
// append-only writes, grows the oldest table geometrically, so a byte is
// rewritten by a full merge about log₂(data / flush) times.
func overlayHeavy(tables []*sstable.Table) bool {
	if len(tables) < 2 {
		return false
	}
	newer := 0
	for _, t := range tables[:len(tables)-1] {
		newer += t.Bytes()
	}
	return newer >= tables[len(tables)-1].Bytes()
}

// pickTier selects a run of adjacent, similar-sized tables to merge
// (size-tiered compaction): the longest run of at most fanIn tables whose
// largest member is within 2× of its smallest, preferring older runs so
// the oldest-suffix rounds that can garbage-collect tombstones happen
// often. Returns (-1, -1) when no run qualifies.
func pickTier(tables []*sstable.Table, fanIn int) (int, int) {
	n := len(tables)
	maxRun := fanIn
	if maxRun > n {
		maxRun = n
	}
	for l := maxRun; l >= 2; l-- {
		for i := n - l; i >= 0; i-- {
			lo, hi := tables[i].Bytes(), tables[i].Bytes()
			for _, t := range tables[i+1 : i+l] {
				if b := t.Bytes(); b < lo {
					lo = b
				} else if b > hi {
					hi = b
				}
			}
			if hi <= 2*lo+64 { // +64 keeps tiny near-empty tables in tier
				return i, i + l
			}
		}
	}
	return -1, -1
}

// Tables returns the live tables, newest first.
func (e *Engine) Tables() []*sstable.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]*sstable.Table(nil), e.tables...)
}

// TablesSince returns tables that may contain writes with LSN > after,
// chosen by their max-LSN tags; catch-up ships these when the leader's log
// has been truncated (paper §6.1).
func (e *Engine) TablesSince(after wal.LSN) []*sstable.Table {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []*sstable.Table
	for _, t := range e.tables {
		if _, max := t.LSNRange(); max > after {
			out = append(out, t)
		}
	}
	return out
}

// ExportTable returns the serialized blob of a live table by id, for bulk
// catch-up to ship in chunks. ok is false when the table is no longer in
// the live set (compacted away since the manifest was cut); the fetcher
// then restarts from a fresh manifest.
func (e *Engine) ExportTable(id uint64) ([]byte, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, t := range e.tables {
		if t.ID() == id {
			return t.Blob(), true
		}
	}
	return nil, false
}

// IngestTables installs shipped table blobs (newest first, the shipping
// leader's stacking order) and raises the checkpoint to snapCmt, the LSN
// through which the snapshot covers all committed state.
//
// Two modes, chosen by the engine's state:
//
//   - An empty engine (fresh join, or wiped for re-join) installs the blobs
//     directly as its table stack. The shipped set is a suffix-complete view
//     of the leader's resolved state, so first-hit-wins reads over it are
//     correct as-is.
//
//   - A non-empty engine cannot stack foreign tables above or below its own
//     (a shipped table may hold an older cell for a key this engine has
//     newer, or vice versa — either stacking order would shadow a newer cell
//     with a staler one on point reads). Instead the blobs are *sifted*:
//     each shipped entry is applied through the normal path only when it is
//     newer than the engine's current view of that key, then the memtable is
//     flushed so the checkpoint raise is backed by durable tables.
//
// After either mode, every committed write at or below snapCmt is reflected
// in the engine's durable tables (directly, or superseded by a newer cell),
// which is exactly the checkpoint contract local recovery relies on.
func (e *Engine) IngestTables(blobs [][]byte, snapCmt wal.LSN) error {
	// Parse everything up front: reject a corrupt shipment before touching
	// any engine state.
	parsed := make([]*sstable.Table, len(blobs))
	for i, blob := range blobs {
		t, err := sstable.Open(0, blob)
		if err != nil {
			return fmt.Errorf("storage: ingest parse: %w", err)
		}
		parsed[i] = t
	}

	e.maintMu.Lock()
	e.mu.RLock()
	empty := len(e.tables) == 0 && len(e.sealed) == 0 && e.mem.Len() == 0 && e.checkpoint.IsZero()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		e.maintMu.Unlock()
		return fmt.Errorf("storage: ingest into closed engine")
	}
	if empty {
		defer e.maintMu.Unlock()
		e.mu.Lock()
		ids := make([]uint64, len(blobs))
		for i := range blobs {
			ids[i] = e.nextID
			e.nextID++
		}
		nextID := e.nextID
		e.mu.Unlock()
		tables := make([]*sstable.Table, 0, len(blobs))
		for i, blob := range blobs {
			if err := e.cfg.Tables.Put(ids[i], blob); err != nil {
				return fmt.Errorf("storage: ingest put: %w", err) // written blobs are orphans, swept at Open
			}
			t, err := sstable.Open(ids[i], blob)
			if err != nil {
				return fmt.Errorf("storage: ingest reopen: %w", err)
			}
			tables = append(tables, t) // blobs arrive newest first — the stack order
		}
		if err := e.saveManifest(nextID, tables, snapCmt); err != nil {
			return err
		}
		e.mu.Lock()
		e.tables = tables
		e.checkpoint = snapCmt
		e.mu.Unlock()
		e.bumpApplied(snapCmt)
		return nil
	}
	e.maintMu.Unlock()

	// Sifted mode. Applies run lock-free against the current view; catch-up
	// is single-threaded per replica and the replica accepts no replicated
	// writes while recovering, so the view only moves beneath us through
	// our own applies.
	for _, t := range parsed { // newest shipped table first
		err := t.Ascend(func(ent kv.Entry) bool {
			if cur, ok := e.Get(ent.Key); !ok || ent.Cell.Newer(cur) {
				e.Apply(ent)
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("storage: ingest sift: %w", err)
		}
	}
	if _, err := e.flush(); err != nil {
		return err
	}
	return e.RaiseCheckpoint(snapCmt)
}

// RaiseCheckpoint persists a checkpoint at least `to`, asserting that every
// committed write at or below it is reflected in the engine's durable
// tables. Bulk catch-up uses it after ingest: the shipped snapshot covers
// (checkpoint, snapCmt], so local recovery may skip that span of the log.
func (e *Engine) RaiseCheckpoint(to wal.LSN) error {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	e.mu.RLock()
	tables := e.tables
	nextID := e.nextID
	cur := e.checkpoint
	closed := e.closed
	e.mu.RUnlock()
	if closed || to <= cur {
		return nil
	}
	if err := e.saveManifest(nextID, tables, to); err != nil {
		return err
	}
	e.mu.Lock()
	if to > e.checkpoint {
		e.checkpoint = to
	}
	e.mu.Unlock()
	e.bumpApplied(to)
	return nil
}

// bumpApplied raises the applied-LSN high-water mark to at least lsn.
func (e *Engine) bumpApplied(lsn wal.LSN) {
	for {
		cur := e.applied.Load()
		if uint64(lsn) <= cur || e.applied.CompareAndSwap(cur, uint64(lsn)) {
			return
		}
	}
}

// EntriesSince returns every entry with LSN > after, from the memtables
// and from tables tagged as overlapping, in key order (duplicates resolved
// to newest). Catch-up uses it to stream a follower back to currency; it
// is complete — including deletions — for any `after` at or above the
// cohort tombstone-GC watermark, which is why compaction may not drop
// tombstones above that watermark.
func (e *Engine) EntriesSince(after wal.LSN) []kv.Entry {
	mem, sealed, tables := e.layers()
	newest := make(map[kv.Key]kv.Cell)
	consider := func(ent kv.Entry) {
		if ent.Cell.LSN <= after {
			return
		}
		if cur, ok := newest[ent.Key]; !ok || ent.Cell.Newer(cur) {
			newest[ent.Key] = ent.Cell
		}
	}
	mem.Ascend(func(ent kv.Entry) bool { consider(ent); return true })
	for i := len(sealed) - 1; i >= 0; i-- {
		sealed[i].Ascend(func(ent kv.Entry) bool { consider(ent); return true })
	}
	for _, t := range tables {
		if _, max := t.LSNRange(); max <= after {
			continue
		}
		_ = t.Ascend(func(ent kv.Entry) bool { consider(ent); return true })
	}
	out := make([]kv.Entry, 0, len(newest))
	for k, c := range newest {
		out = append(out, kv.Entry{Key: k, Cell: c})
	}
	sortEntries(out)
	return out
}

// Empty reports whether the engine holds no data in any layer. A replica
// catching up from emptiness advertises it so the leader can skip building
// an anti-entropy digest nothing will be compared against.
func (e *Engine) Empty() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.mem.Len() > 0 || len(e.tables) > 0 {
		return false
	}
	for _, s := range e.sealed {
		if s.Len() > 0 {
			return false
		}
	}
	return true
}

// Stats reports flush and compaction counts and the live table count.
func (e *Engine) Stats() (flushes, compacts int64, tables int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.flushes, e.compacts, len(e.tables)
}

// ByteStats reports the blob bytes flushes wrote, the blob bytes
// compaction wrote, and the blob bytes compaction read, since Open.
func (e *Engine) ByteStats() (flushed, compacted, compactRead int64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.flushedBytes, e.compactedBytes, e.compactReadBytes
}

// TableBytes returns the summed blob size of the live tables.
func (e *Engine) TableBytes() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var n int64
	for _, t := range e.tables {
		n += int64(len(t.Blob()))
	}
	return n
}

// ReadStats reports how many table probes point reads considered and how
// many the bloom/key-range filters pruned.
func (e *Engine) ReadStats() (probes, pruned int64) {
	return e.probes.Load(), e.pruned.Load()
}

// Wipe discards the engine's entire contents — memtables, SSTables, and
// checkpoint — and durably persists the empty manifest. A node re-joining a
// cohort it previously left calls this before catching up from scratch:
// the engine's pre-departure state is stale (deletes that happened while
// the node was out may have had their tombstones compacted away
// cluster-wide, so catch-up cannot mention them) and must not survive.
func (e *Engine) Wipe() error {
	e.maintMu.Lock()
	defer e.maintMu.Unlock()
	e.mu.Lock()
	old := e.tables
	if err := e.saveManifest(e.nextID, nil, 0); err != nil {
		e.mu.Unlock()
		return err
	}
	e.tables = nil
	e.sealed = nil
	e.mem = memtable.New()
	e.checkpoint = 0
	e.applied.Store(0)
	e.mu.Unlock()
	for _, t := range old {
		if err := e.cfg.Tables.Remove(t.ID()); err != nil {
			return fmt.Errorf("storage: wipe remove %d: %w", t.ID(), err)
		}
	}
	return nil
}

// DropMemtable simulates the crash of the volatile state: everything not
// yet flushed — the active memtable and the sealed queue — is lost, and
// appliedLSN falls back to the checkpoint. Node recovery then replays the
// log from the checkpoint (paper §6.1).
func (e *Engine) DropMemtable() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mem = memtable.New()
	e.sealed = nil
	e.applied.Store(uint64(e.checkpoint))
}
