package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync/atomic"
	"time"

	"spinnaker/internal/kv"
	"spinnaker/internal/merkle"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Bulk catch-up tuning (§6.1, SSTable-based catch-up).
const (
	// maxSnapshotRounds bounds how many manifest rounds one catchUp may
	// take before forcing the entry path; each round lands the follower at
	// that round's snapCmt, so the residue shrinks monotonically.
	maxSnapshotRounds = 4
	// catchupChunkBytes is the table-blob transfer chunk size.
	catchupChunkBytes = 256 << 10
	// merkleTargetLeaves sizes the anti-entropy tree the leader cuts over
	// its resolved state.
	merkleTargetLeaves = 64
	// chunkRetryLimit bounds consecutive re-requests of one damaged chunk.
	chunkRetryLimit = 4
)

// testCatchupScanHook, when set by a test, runs after onCatchupReq releases
// r.mu and before the engine scan — the window in which writes must keep
// flowing. Atomic because tests arm it while replica goroutines run.
var testCatchupScanHook atomic.Pointer[func()]

// localRecover rebuilds the replica's volatile state from its share of the
// node's log (paper §6.1, local recovery phase). recs is the cohort's slice
// of the shared log scan, in append order (the 3 cohorts of a node are
// recovered in parallel from one shared scan, §6).
//
// Records from the most recent checkpoint through f.cmt are re-applied
// idempotently to the memtable. Records after f.cmt are ambiguous — they
// may or may not have been committed by the leader — and are parked in the
// commit queue for the catch-up phase to resolve. LSNs on the skipped-LSN
// list (logically truncated, §6.1.1) are never re-applied.
func (r *replica) localRecover(recs []wal.Record) error {
	skipped, err := wal.LoadSkippedLSNs(r.n.meta, r.rangeID)
	if err != nil {
		return fmt.Errorf("core: load skipped LSNs: %w", err)
	}

	var cmt, lst wal.LSN
	writes := make(map[wal.LSN]WriteOp)
	for _, rec := range recs {
		switch rec.Type {
		case wal.RecWrite:
			if skipped.Contains(rec.LSN) {
				continue
			}
			op, _, err := DecodeWriteOp(rec.Payload)
			if err != nil {
				return fmt.Errorf("core: corrupt write at %s: %w", rec.LSN, err)
			}
			writes[rec.LSN] = op
			if rec.LSN > lst {
				lst = rec.LSN
			}
		case wal.RecLastCommitted:
			if rec.LSN > cmt {
				cmt = rec.LSN
			}
		case wal.RecResetCohort:
			// The node re-joined this cohort after a membership
			// departure: everything logged before this point belongs
			// to the stale pre-departure era (the engine was wiped
			// when the marker was written) and must not be replayed.
			writes = make(map[wal.LSN]WriteOp)
			cmt, lst = 0, 0
		}
	}
	// The storage checkpoint is a durable commit floor: every write at
	// or below it was committed and captured in SSTables (applies are
	// commit-ordered and flushes cut the memtable at an LSN boundary).
	// The scanned cmt can lag it — RecLastCommitted records are written
	// non-forced (§5) and a crash loses the unforced tail — and
	// advertising the lower value in catch-up would request entries
	// below the cohort's tombstone-GC watermark, where compaction may
	// already have dropped delete markers and EntriesSince is no longer
	// complete. Recover f.cmt as the max of the two floors.
	checkpoint := r.engine.Checkpoint()
	if checkpoint > cmt {
		cmt = checkpoint
	}
	if cmt > lst {
		// A commit marker can reference writes served entirely from
		// catch-up entries that were themselves logged; treat the
		// marker as authoritative for f.cmt but never above what we
		// can prove.
		lst = cmt
	}
	lsns := make([]wal.LSN, 0, len(writes))
	for l := range writes {
		lsns = append(lsns, l)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	for _, l := range lsns {
		if l <= checkpoint {
			continue
		}
		if l <= cmt {
			applyOp(r.engine, writes[l], l)
			continue
		}
		// Ambiguous suffix (f.cmt, f.lst]: pending until catch-up.
		r.queue.add(&pendingWrite{lsn: l, op: writes[l], selfForced: true})
	}

	r.mu.Lock()
	r.skipped = skipped
	r.lastCommitted = cmt
	r.lastLSN = lst
	if e := lst.Epoch(); e > r.epoch {
		r.epoch = e
	}
	r.nextSeq = lst.Seq() + 1
	r.role = RoleRecovering
	if r.hasOrigin && lst.IsZero() && cmt.IsZero() {
		// A split-created range with no durable state yet (a restart
		// before the first pull completed): the range's data lives with
		// the origin cohort, so gate elections until a pull succeeds.
		r.mustPull = true
	}
	r.mu.Unlock()
	return nil
}

// ambiguousLSNs returns the replica's pending LSNs in (f.cmt, f.lst] —
// the writes whose fate the catch-up phase must resolve.
func (r *replica) ambiguousLSNs() []wal.LSN {
	r.mu.Lock()
	cmt := r.lastCommitted
	r.mu.Unlock()
	var out []wal.LSN
	r.queue.mu.Lock()
	for _, l := range r.queue.order {
		if l > cmt {
			out = append(out, l)
		}
	}
	r.queue.mu.Unlock()
	return out
}

// catchUp runs the follower's catch-up phase (§6.1): advertise f.cmt to the
// leader, receive every committed write after it, resolve the ambiguous
// suffix by logical truncation, and leave the replica a current follower.
//
// When the leader's log has been truncated past our f.cmt, the reply is a
// snapshot manifest instead of entries: absorb the shipped SSTables (which
// land us at the snapshot's cmt) and go around again — the next round asks
// only for (snapCmt, l.cmt], which the leader serves as entries.
func (r *replica) catchUp(leader string) error {
	for round := 0; ; round++ {
		r.mu.Lock()
		req := catchupReq{Cmt: r.lastCommitted}
		r.mu.Unlock()
		req.Ambiguous = r.ambiguousLSNs()
		req.NoSnap = r.n.cfg.DisableSnapshotCatchup || round >= maxSnapshotRounds
		req.Empty = r.engine.Empty()

		resp, err := r.n.call(leader, transport.Message{
			Kind: MsgCatchupReq, Cohort: r.rangeID, Payload: encodeCatchupReq(req),
		})
		if err != nil {
			return fmt.Errorf("core: catch-up call: %w", err)
		}
		if resp.Kind == MsgSnapManifest {
			man, err := decodeSnapManifest(resp.Payload)
			if err != nil {
				return err
			}
			if man.Status == StatusNotLeader {
				return fmt.Errorf("%w: %s no longer leads range %d", ErrNotLeader, leader, r.rangeID)
			}
			if man.Status != StatusOK {
				return fmt.Errorf("core: snapshot catch-up refused: status %d", man.Status)
			}
			if err := r.absorbSnapshot(leader, man, req.Ambiguous); err != nil {
				return err
			}
			continue
		}
		cr, err := decodeCatchupResp(resp.Payload)
		if err != nil {
			return err
		}
		if cr.Status == StatusNotLeader {
			return fmt.Errorf("%w: %s no longer leads range %d", ErrNotLeader, leader, r.rangeID)
		}
		if cr.Status != StatusOK {
			return fmt.Errorf("core: catch-up refused: status %d", cr.Status)
		}
		return r.absorbCatchup(cr, req.Ambiguous)
	}
}

// absorbCatchup applies a catch-up (or takeover) response: logically
// truncate dead-branch LSNs, durably log the received committed writes,
// apply them, and advance f.cmt.
func (r *replica) absorbCatchup(cr catchupResp, ambiguous []wal.LSN) error {
	present := make(map[wal.LSN]bool, len(cr.Present))
	for _, l := range cr.Present {
		present[l] = true
	}

	r.mu.Lock()
	// Logical truncation (§6.1.1): ambiguous LSNs absent from the
	// leader's history were discarded by a leader change and must never
	// be re-applied by future local recoveries.
	truncated := false
	for _, l := range ambiguous {
		if !present[l] {
			r.skipped.Add(l)
			r.queue.remove(l)
			truncated = true
		}
	}
	if truncated {
		if err := wal.SaveSkippedLSNs(r.n.meta, r.rangeID, r.skipped); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("core: persist skipped LSNs: %w", err)
		}
	}

	// Durably log the received committed state so a crash right after
	// catch-up does not lose it, then apply. The whole delivery goes down
	// as one group frame — one header, one checksum, one device append —
	// and one force covers it (all-or-nothing: a torn group frame is
	// dropped whole at recovery, never a prefix).
	var end int64
	if len(cr.Entries) > 0 {
		recs := make([]wal.Record, 0, len(cr.Entries))
		for _, e := range cr.Entries {
			op := WriteOp{Row: e.Key.Row, Cols: []ColWrite{{
				Col: e.Key.Col, Value: e.Cell.Value,
				Delete: e.Cell.Deleted, Version: e.Cell.Version,
			}}}
			recs = append(recs, wal.Record{
				Cohort: r.rangeID, Type: wal.RecWrite, LSN: e.Cell.LSN,
				Payload: EncodeWriteOp(nil, op),
			})
			if e.Cell.LSN > r.lastLSN {
				r.lastLSN = e.Cell.LSN
			}
		}
		var err error
		if end, err = r.n.log.AppendBatch(recs); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("core: log catch-up entries: %w", err)
		}
	}
	r.mu.Unlock()
	if end > 0 {
		if err := r.n.log.ForceTo(end); err != nil {
			return fmt.Errorf("core: force catch-up entries: %w", err)
		}
	}
	for _, e := range cr.Entries {
		r.engine.Apply(e)
	}
	r.applyCommitted(cr.Cmt, true)
	r.mu.Lock()
	if cr.Cmt > r.lastLSN {
		r.lastLSN = cr.Cmt
	}
	if e := r.lastLSN.Epoch(); e > r.epoch {
		r.epoch = e
	}
	r.nextSeq = r.lastLSN.Seq() + 1
	// Every absorb source (range leader, takeover, split pull) delivers
	// the complete committed state through the leader's cmt, so a
	// split-created replica now holds its range's data and may stand for
	// election.
	r.mustPull = false
	r.mu.Unlock()
	r.m.entryCatchups.Inc()
	return nil
}

// splitPull seeds a fresh replica of a split-created range. If the range
// already has a leader, ordinary catch-up against it delivers everything.
// Otherwise the state still lives with the origin range's cohort: pull the
// origin leader's committed rows in our bounds (served only once the origin
// has adopted the shrunk bounds and drained in-flight writes to those rows,
// so the pull is complete by construction).
func (r *replica) splitPull() error {
	if leader := r.n.readLeader(r.rangeID); leader != "" && leader != r.n.cfg.ID {
		if err := r.catchUp(leader); err == nil {
			return nil
		}
	}
	r.mu.Lock()
	low, high := r.low, r.high
	r.mu.Unlock()
	if !r.hasOrigin {
		return fmt.Errorf("core: range %d has no origin to pull from", r.rangeID)
	}
	leader := r.n.readLeader(r.origin)
	if leader == "" {
		return fmt.Errorf("core: origin range %d has no leader", r.origin)
	}
	var cr catchupResp
	if leader == r.n.cfg.ID {
		// This node leads the origin range; serve the pull locally.
		or := r.n.getReplica(r.origin)
		if or == nil {
			return fmt.Errorf("core: origin range %d not served here", r.origin)
		}
		var ok bool
		cr, ok = or.serveSplitPull(low, high)
		if !ok {
			return fmt.Errorf("core: origin range %d not ready for split pull", r.origin)
		}
	} else {
		resp, err := r.n.call(leader, transport.Message{
			Kind: MsgCatchupReq, Cohort: r.origin,
			Payload: encodeCatchupReq(catchupReq{SplitPull: true, FilterLow: low, FilterHigh: high}),
		})
		if err != nil {
			return fmt.Errorf("core: split pull call: %w", err)
		}
		if cr, err = decodeCatchupResp(resp.Payload); err != nil {
			return err
		}
		if cr.Status != StatusOK {
			return fmt.Errorf("core: split pull refused: status %d", cr.Status)
		}
	}
	return r.absorbCatchup(cr, nil)
}

// serveSplitPull is the origin leader's side of a split pull: once we have
// adopted the shrunk bounds (so no new writes enter [low, high)) and every
// in-flight write to those rows has resolved, our engine holds the moved
// sub-range's complete committed state.
func (r *replica) serveSplitPull(low, high string) (catchupResp, bool) {
	r.mu.Lock()
	if r.role != RoleLeader || !(r.high != "" && r.high <= low) {
		r.mu.Unlock()
		return catchupResp{}, false // not leading, or the shrink has not reached us
	}
	if r.queue.hasPendingRowIn(low, high) {
		r.mu.Unlock()
		return catchupResp{}, false // drain in-flight writes first
	}
	cmt := r.lastCommitted
	r.mu.Unlock()

	// Scan outside r.mu: the full-engine walk is slow on a hot range and
	// would stall the whole write path. The filtered result is stable
	// without the lock — after the shrink + drain above, no write to
	// [low, high) can enter this engine again.
	var entries []kv.Entry
	for _, e := range r.engine.EntriesSince(0) {
		if keyInRange(e.Key.Row, low, high) {
			entries = append(entries, e)
		}
	}
	return catchupResp{Status: StatusOK, Cmt: cmt, Entries: entries}, true
}

// onCatchupReq is the leader's side of catch-up (§6.1): send every
// committed write after the follower's f.cmt, plus the subset of the
// follower's ambiguous LSNs that exist in our history.
//
// The engine scan runs OFF r.mu — a full-range walk on a hot range would
// otherwise stall every write for its duration (the same reasoning as
// serveSplitPull). The race that opens is closed by a bounded log-tail
// re-read: applies always precede the lastCommitted advance, so the
// pre-scan cmt bounds what the scan might have missed, and the records in
// (preScanCmt, postScanCmt] are re-read from the log under a short lock.
// The response is therefore complete through its advertised Cmt without
// ever blocking writes behind the scan.
//
// If part of (f.cmt, l.cmt] has been truncated from our log, entries served
// from the engine are no longer the cheapest complete answer: the sealed
// SSTables themselves are shipped instead (snapshot manifest + chunked
// blob transfer), unless the follower opted out with NoSnap. EntriesSince
// remains complete (deletes included) for any f.cmt at or above the
// cohort's tombstone-GC watermark, and the watermark never exceeds a
// member's durable commit floor, so a legitimate follower can never ask
// below it.
func (r *replica) onCatchupReq(m transport.Message) {
	req, err := decodeCatchupReq(m.Payload)
	if err != nil {
		return
	}
	if req.SplitPull {
		resp, ok := r.serveSplitPull(req.FilterLow, req.FilterHigh)
		if !ok {
			r.mu.Lock()
			isLeader := r.role == RoleLeader
			r.mu.Unlock()
			status := StatusUnavailable // not shrunk or not drained yet; retry
			if !isLeader {
				status = StatusNotLeader
			}
			r.n.reply(m, transport.Message{Cohort: r.rangeID,
				Payload: encodeCatchupResp(catchupResp{Status: status})})
			return
		}
		r.n.reply(m, transport.Message{Cohort: r.rangeID, Payload: encodeCatchupResp(resp)})
		return
	}
	r.mu.Lock()
	if r.role != RoleLeader {
		r.mu.Unlock()
		r.n.reply(m, transport.Message{Cohort: r.rangeID,
			Payload: encodeCatchupResp(catchupResp{Status: StatusNotLeader})})
		return
	}
	cmt0 := r.lastCommitted
	present := r.presentLSNsLocked(req.Ambiguous)
	r.mu.Unlock()

	// SSTable-based catch-up: the log can no longer prove completeness for
	// this follower, so ship the tables that hold the missing history.
	if !req.NoSnap && r.n.log.Truncated(r.rangeID) > req.Cmt {
		r.serveSnapshot(m, req, present)
		return
	}

	if hook := testCatchupScanHook.Load(); hook != nil {
		(*hook)()
	}
	entries := r.engine.EntriesSince(req.Cmt)

	r.mu.Lock()
	cmtNow := r.lastCommitted
	r.mu.Unlock()
	if cmtNow > cmt0 {
		// Writes committed during the scan: re-read the bounded tail
		// (cmt0, cmtNow] from the log. cmt0 is at or above our own
		// checkpoint, which is at or above the truncation point, so the
		// tail is always log-complete.
		recs, ok, err := r.n.log.CohortWritesIn(r.rangeID, cmt0, cmtNow)
		if err != nil || !ok {
			cmtNow = cmt0 // advertise only what the scan provably covers
		} else {
			r.mu.Lock()
			kept := recs[:0]
			for _, rec := range recs {
				if rec.LSN > req.Cmt && !r.skipped.Contains(rec.LSN) {
					kept = append(kept, rec)
				}
			}
			r.mu.Unlock()
			for _, rec := range kept {
				op, _, err := DecodeWriteOp(rec.Payload)
				if err != nil {
					cmtNow = cmt0
					break
				}
				// Duplicates against the scan are fine: the absorber's
				// memtable resolves same-key entries newest-wins.
				applyOp((*entryList)(&entries), op, rec.LSN)
			}
		}
	}
	resp := catchupResp{Status: StatusOK, Cmt: cmtNow, Present: present, Entries: entries}
	r.n.reply(m, transport.Message{Cohort: r.rangeID, Payload: encodeCatchupResp(resp)})
}

// serveSnapshot is the leader's SSTable-shipping path (§6.1): seal the
// memtable so the tables cover a single LSN point, then offer the tables
// tagged beyond the follower's f.cmt together with a Merkle tree over our
// resolved state, so the follower fetches only the subranges it actually
// differs in.
func (r *replica) serveSnapshot(m transport.Message, req catchupReq, present []wal.LSN) {
	refuse := func() {
		r.n.reply(m, transport.Message{Cohort: r.rangeID,
			Payload: encodeCatchupResp(catchupResp{Status: StatusUnavailable})})
	}
	if err := r.engine.Flush(); err != nil {
		refuse()
		return
	}
	snapCmt := r.engine.Checkpoint()
	if snapCmt <= req.Cmt {
		refuse()
		return
	}
	tables := r.engine.TablesSince(req.Cmt)
	metas := make([]snapTableMeta, 0, len(tables))
	for _, t := range tables {
		blob := t.Blob()
		minLSN, maxLSN := t.LSNRange()
		meta := snapTableMeta{
			ID: t.ID(), Size: uint32(len(blob)), CRC: crc32.ChecksumIEEE(blob),
			MinLSN: minLSN, MaxLSN: maxLSN,
		}
		if minKey, maxKey, ok := t.KeyRange(); ok {
			meta.MinRow, meta.MaxRow = minKey.Row, maxKey.Row
		}
		metas = append(metas, meta)
	}
	// Digest the resolved state as of snapCmt. The engine keeps moving
	// under this off-lock scan; filtering to LSN ≤ snapCmt pins the digest
	// to the snapshot point. A key overwritten beyond snapCmt mid-scan
	// drops out of the digest entirely — that can only make a leaf differ
	// spuriously (an over-fetch), never hide a real difference.
	//
	// A follower that declared itself empty gets no digest at all: every
	// leaf would differ against nothing, so the full-range resolved scan
	// would be paid only to conclude "ship everything".
	var cuts []string
	var leaves []merkle.Digest
	if !req.Empty {
		var snapEntries []kv.Entry
		for _, e := range r.engine.EntriesSince(0) {
			if e.Cell.LSN <= snapCmt {
				snapEntries = append(snapEntries, e)
			}
		}
		tree := merkle.Build(snapEntries, merkleTargetLeaves)
		cuts, leaves = tree.Cuts(), tree.Leaves()
	}

	r.mu.Lock()
	cmtNow := r.lastCommitted
	r.snapshotsServed++
	r.mu.Unlock()
	man := snapManifest{
		Status: StatusOK, Cmt: cmtNow, SnapCmt: snapCmt, Present: present,
		Tables: metas, Cuts: cuts, Leaves: leaves,
	}
	r.n.reply(m, transport.Message{
		Kind: MsgSnapManifest, Cohort: r.rangeID, Payload: encodeSnapManifest(man),
	})
}

// onTableChunkReq serves one chunk of a live table's blob to a fetching
// follower. A table that has since left the live set (compacted away)
// answers StatusNotFound; the follower restarts from a fresh manifest.
func (r *replica) onTableChunkReq(m transport.Message) {
	req, err := decodeTableChunkReq(m.Payload)
	if err != nil {
		return
	}
	blob, ok := r.engine.ExportTable(req.Table)
	if !ok || req.Offset >= uint32(len(blob)) {
		r.n.reply(m, transport.Message{Kind: MsgTableChunk, Cohort: r.rangeID,
			Payload: encodeTableChunk(tableChunk{Status: StatusNotFound, Table: req.Table})})
		return
	}
	end := int(req.Offset) + catchupChunkBytes
	if end > len(blob) {
		end = len(blob)
	}
	data := blob[req.Offset:end]
	r.n.reply(m, transport.Message{Kind: MsgTableChunk, Cohort: r.rangeID,
		Payload: encodeTableChunk(tableChunk{
			Status: StatusOK, Table: req.Table, Offset: req.Offset,
			Total: uint32(len(blob)), CRC: crc32.ChecksumIEEE(data), Data: data,
		})})
}

// fetchTable pulls one manifest table's blob chunk by chunk. The follower
// drives the offsets, so a chunk that fails verification is re-requested at
// the same offset — the transfer resumes where its verified prefix ends.
func (r *replica) fetchTable(leader string, meta snapTableMeta) ([]byte, error) {
	blob := make([]byte, 0, meta.Size)
	retries := 0
	for uint32(len(blob)) < meta.Size {
		resp, err := r.n.call(leader, transport.Message{
			Kind: MsgTableChunkReq, Cohort: r.rangeID,
			Payload: encodeTableChunkReq(tableChunkReq{Table: meta.ID, Offset: uint32(len(blob))}),
		})
		if err != nil {
			return nil, fmt.Errorf("core: table chunk call: %w", err)
		}
		ch, err := decodeTableChunk(resp.Payload)
		if err != nil {
			return nil, err
		}
		if ch.Status != StatusOK {
			return nil, fmt.Errorf("core: table %d no longer served (status %d)", meta.ID, ch.Status)
		}
		if ch.Table != meta.ID || ch.Offset != uint32(len(blob)) || ch.Total != meta.Size ||
			len(ch.Data) == 0 || crc32.ChecksumIEEE(ch.Data) != ch.CRC {
			retries++
			if retries > chunkRetryLimit {
				return nil, fmt.Errorf("core: table %d chunk at offset %d failed verification %d times",
					meta.ID, len(blob), retries)
			}
			continue
		}
		retries = 0
		blob = append(blob, ch.Data...)
	}
	if crc32.ChecksumIEEE(blob) != meta.CRC {
		return nil, fmt.Errorf("core: table %d reassembled blob fails manifest CRC", meta.ID)
	}
	return blob, nil
}

// absorbSnapshot applies a snapshot manifest: logically truncate dead
// branches, diff our state against the leader's Merkle tree, fetch only the
// tables intersecting differing subranges, ingest them beneath our live
// state, and advance f.cmt to the snapshot's coverage point. The caller
// then loops: the next catch-up round asks for (snapCmt, l.cmt] as entries.
func (r *replica) absorbSnapshot(leader string, man snapManifest, ambiguous []wal.LSN) error {
	present := make(map[wal.LSN]bool, len(man.Present))
	for _, l := range man.Present {
		present[l] = true
	}
	r.mu.Lock()
	// Logical truncation (§6.1.1), exactly as the entry path: ambiguous
	// LSNs absent from the leader's history must never be re-applied.
	truncated := false
	for _, l := range ambiguous {
		if !present[l] {
			r.skipped.Add(l)
			r.queue.remove(l)
			truncated = true
		}
	}
	if truncated {
		if err := wal.SaveSkippedLSNs(r.n.meta, r.rangeID, r.skipped); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("core: persist skipped LSNs: %w", err)
		}
	}
	r.mu.Unlock()

	// Anti-entropy: rebuild the leader's tree shape over our own resolved
	// state and fetch only the tables whose row span intersects a
	// differing subrange. Everything we hold is at or below our f.cmt ≤
	// snapCmt, so the two trees digest the same coverage point. A manifest
	// without a digest (the leader honored our Empty declaration, or a
	// peer sent none) ships every offered table — the conservative answer,
	// never an under-fetch.
	var needed []snapTableMeta
	if len(man.Leaves) == 0 {
		needed = man.Tables
	} else {
		local := merkle.BuildWithCuts(man.Cuts, r.engine.EntriesSince(0))
		remote := merkle.New(man.Cuts, man.Leaves)
		if remote == nil {
			return fmt.Errorf("core: snapshot manifest merkle tree malformed")
		}
		diffs := merkle.Diff(local, remote)
		for _, meta := range man.Tables {
			for _, d := range diffs {
				if d.Intersects(meta.MinRow, meta.MaxRow) {
					needed = append(needed, meta)
					break
				}
			}
		}
	}
	if len(needed) > 0 {
		blobs := make([][]byte, 0, len(needed))
		for _, meta := range needed {
			blob, err := r.fetchTable(leader, meta)
			if err != nil {
				// The round is abandoned whole; the retry loop requests
				// a fresh manifest and the transfer restarts.
				return err
			}
			blobs = append(blobs, blob)
		}
		if err := r.engine.IngestTables(blobs, man.SnapCmt); err != nil {
			return fmt.Errorf("core: ingest snapshot tables: %w", err)
		}
	} else {
		// Our resolved state already matches the snapshot everywhere;
		// seal it and claim the coverage point.
		if err := r.engine.Flush(); err != nil {
			return err
		}
		if err := r.engine.RaiseCheckpoint(man.SnapCmt); err != nil {
			return err
		}
	}

	// The snapshot covers every committed write at or below SnapCmt:
	// resolve the pending writes it subsumes WITHOUT re-applying them (a
	// pending op's memtable redo could shadow a newer ingested cell — the
	// ingest already reflects their final effect) and advance f.cmt.
	r.mu.Lock()
	popped := r.queue.popThrough(man.SnapCmt, nil)
	if man.SnapCmt > r.lastCommitted {
		r.lastCommitted = man.SnapCmt
	}
	if man.SnapCmt > r.lastLSN {
		r.lastLSN = man.SnapCmt
	}
	if e := r.lastLSN.Epoch(); e > r.epoch {
		r.epoch = e
	}
	r.nextSeq = r.lastLSN.Seq() + 1
	r.mustPull = false
	r.snapshotCatchups++
	r.mu.Unlock()
	_, _ = r.n.log.Append(wal.Record{
		Cohort: r.rangeID, Type: wal.RecLastCommitted, LSN: man.SnapCmt,
	})
	for _, p := range popped {
		p.finish(writeOutcome{status: StatusOK})
	}
	return nil
}

// presentLSNsLocked returns the subset of the asked LSNs that appear in our
// durable history (log or pending queue); callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) presentLSNsLocked(asked []wal.LSN) []wal.LSN {
	if len(asked) == 0 {
		return nil
	}
	want := make(map[wal.LSN]bool, len(asked))
	for _, l := range asked {
		want[l] = true
	}
	present := make(map[wal.LSN]bool)
	// The log is authoritative; the scan is bounded by log size, and
	// catch-up is off the critical path.
	_ = r.n.log.ScanCohort(r.rangeID, func(rec wal.Record) error {
		if rec.Type == wal.RecWrite && want[rec.LSN] && !r.skipped.Contains(rec.LSN) {
			present[rec.LSN] = true
		}
		return nil
	})
	out := make([]wal.LSN, 0, len(present))
	for _, l := range asked {
		if present[l] {
			out = append(out, l)
		}
	}
	return out
}

// onTakeover is the follower's side of leader takeover (Fig 6 lines 5-6):
// the new leader catches us up to its l.cmt and sends a commit message.
// The payload reuses the catch-up response format; Present covers our whole
// ambiguous range so dead branches are truncated immediately.
func (r *replica) onTakeover(m transport.Message) {
	cr, err := decodeCatchupResp(m.Payload)
	if err != nil {
		return
	}
	r.mu.Lock()
	if r.role == RoleLeader {
		// We believed we led; a takeover from a higher epoch demotes us.
		r.demoteLocked(m.From)
	}
	r.leaderID = m.From
	if r.role == RoleRecovering {
		r.role = RoleFollower
	}
	r.mu.Unlock()

	ambiguous := r.ambiguousLSNs()
	if err := r.absorbCatchup(cr, ambiguous); err != nil {
		return
	}
	r.mu.Lock()
	cmt := r.lastCommitted
	r.mu.Unlock()
	r.n.markCurrent(r.rangeID)
	r.n.reply(m, transport.Message{Cohort: r.rangeID, Payload: encodeLSN(cmt)})
}

// demoteLocked turns a (stale) leader back into a follower, failing any
// writes still waiting for quorum; callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) demoteLocked(newLeader string) {
	r.role = RoleFollower
	r.open = false
	r.leaderID = newLeader
	// Wake the election loop: it may be blocked watching our own leader
	// znode (which will never change by itself). On waking it finds the
	// znode held-but-not-led and deletes it so a real election can run;
	// without the nudge the whole cohort waits on the orphan forever.
	select {
	case r.electionNudge <- struct{}{}:
	default:
	}
	// Drop any proposals still waiting in the batcher: the new leader
	// owns the replication stream now (followers would reject them as
	// stale-epoch anyway). The window re-arms with them, so a batch left
	// outstanding here cannot hold back a later term's first write.
	r.dropProposalsLocked()
	// Pending writes keep their places in the queue — they are in our
	// durable log and may yet be committed by the new leader's
	// re-proposals. Their waiting clients, however, must not hang.
	for _, lsn := range r.queue.snapshotOrder() {
		if p, ok := r.queue.get(lsn); ok {
			p.finish(writeOutcome{status: StatusAmbiguous, detail: "leadership lost mid-replication"})
		}
	}
}

// runCatchupLoop retries catch-up until it succeeds; used when a follower
// detects it is behind (gap in proposes, commit message beyond its log, or
// restart with an existing leader).
func (r *replica) runCatchupLoop() {
	for attempt := 0; ; attempt++ {
		if r.exiting() {
			return
		}
		r.mu.Lock()
		leader := r.leaderID
		role := r.role
		mustPull := r.mustPull
		r.mu.Unlock()
		if role == RoleLeader {
			return
		}
		if mustPull {
			// Split-created and still empty: seed from the origin
			// cohort (or the range's own leader once one exists). The
			// election gate re-nudges this loop until a pull succeeds,
			// so bounded attempts here never strand the replica.
			if err := r.splitPull(); err == nil {
				r.mu.Lock()
				if r.role == RoleRecovering {
					r.role = RoleFollower
				}
				r.mu.Unlock()
				r.n.markCurrent(r.rangeID)
				return
			}
			if attempt > 10 {
				return
			}
			time.Sleep(r.n.cfg.RetryInterval)
			continue
		}
		if leader == "" || leader == r.n.cfg.ID {
			leader = r.n.readLeader(r.rangeID)
			if leader == "" || leader == r.n.cfg.ID {
				return // no leader: the election loop owns recovery now
			}
			r.mu.Lock()
			r.leaderID = leader
			r.mu.Unlock()
		}
		err := r.catchUp(leader)
		if err == nil {
			r.mu.Lock()
			if r.role == RoleRecovering {
				r.role = RoleFollower
			}
			r.mu.Unlock()
			r.n.markCurrent(r.rangeID)
			return
		}
		if errors.Is(err, ErrNotLeader) {
			r.mu.Lock()
			r.leaderID = ""
			r.mu.Unlock()
		}
		if attempt > 50 || errors.Is(err, transport.ErrPeerClosed) {
			// A closed peer will not answer the next fifty attempts
			// either, and while this loop spins a recovering replica's
			// election loop (which called it) is not standing for the
			// election that replaces the dead leader. The leader znode's
			// watch re-enters catch-up against the successor.
			return
		}
		time.Sleep(r.n.cfg.RetryInterval)
	}
}
