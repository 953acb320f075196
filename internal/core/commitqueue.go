package core

import (
	"slices"
	"sync"
	"time"

	"spinnaker/internal/kv"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// writeOutcome is delivered to a leader-side write's client when the write
// commits (or fails permanently).
type writeOutcome struct {
	status uint8
	detail string
}

// writeReplier answers a client's write request. The leader's Node is the
// one outside tests.
type writeReplier interface {
	// replyWrite answers req with out; a sequenced write passes its LSN,
	// which is the version of each of its columns. The reply is encoded
	// onto dst (encodeWriteResult; nil allocates it).
	replyWrite(req transport.Message, out writeOutcome, lsn wal.LSN, dst []byte)
}

// pendingWrite is one entry in the commit queue: a write that has been
// logged and proposed but not yet committed (paper §4.1: "The commit queue
// is a main-memory data structure that is used to track pending writes.
// Writes are committed only after receiving a sufficient number of acks
// from a cohort. In the meantime, they are stored in the commit queue.").
type pendingWrite struct {
	lsn wal.LSN
	op  WriteOp
	// cols holds a one-column write's column, so a write decoded in place
	// (decodeWrite, decodeProposeBatch) needs no Cols slice: op.Cols points
	// here. raw is op's encoding — the client's payload on the leader, the
	// record's bytes within the propose payload on a follower, the log
	// record's payload after local recovery: what the WAL append writes and
	// what a propose or re-proposal sends.
	cols       [1]ColWrite
	raw        []byte
	selfForced bool // the local log force for this write completed
	doneOnce   sync.Once
	// client answers the write's request, req (the inbound MsgWrite's
	// header), on commit: the leader replies then instead of holding a
	// goroutine per write. Nil on followers, whose pendings have no waiting
	// client. enqueuedAt bounds the wait via the leader's WriteTimeout sweep.
	// A reply without a detail is encoded into reply, which finish writes
	// once (doneOnce) and the transport may hold after it returns.
	client     writeReplier
	req        transport.Message
	enqueuedAt time.Time
	reply      [writeResultSize]byte
	// lastPropose is when the leader last sent (or re-sent) the propose
	// message, for retransmission of writes whose proposes were lost.
	// The paper gets retransmission from TCP; across reconnects we must
	// re-propose explicitly, which followers dedupe by LSN.
	lastPropose time.Time
	// observers run when the write's outcome is decided (true = the
	// write committed). Conditional puts rejected on the strength of
	// this still-uncommitted write park their mismatch replies here: the
	// rejection may not become visible before the state that justifies
	// it does (§5.1 ordering, extended to the failure path).
	obsMu     sync.Mutex
	obsDone   bool
	obsOK     bool
	observers []func(committed bool)
}

// observe registers f to run once the write's outcome is decided; if it
// already has been, f runs immediately on the caller's goroutine.
func (p *pendingWrite) observe(f func(committed bool)) {
	p.obsMu.Lock()
	if p.obsDone {
		ok := p.obsOK
		p.obsMu.Unlock()
		f(ok)
		return
	}
	p.observers = append(p.observers, f)
	p.obsMu.Unlock()
}

// finish delivers the write's outcome to its waiting client exactly once;
// safe to call from any goroutine, and a no-op for follower-side pendings
// (which have no waiting client).
func (p *pendingWrite) finish(out writeOutcome) {
	p.doneOnce.Do(func() {
		if p.client != nil {
			p.client.replyWrite(p.req, out, p.lsn, p.reply[:0])
		}
		p.obsMu.Lock()
		p.obsDone = true
		p.obsOK = out.status == StatusOK
		obs := p.observers
		p.observers = nil
		p.obsMu.Unlock()
		for _, f := range obs {
			f(p.obsOK)
		}
	})
}

// commitQueue tracks a cohort's pending writes in LSN order and decides
// when the head of the queue may commit. Writes commit strictly in LSN
// order within a cohort (§5.1), so a later write that gathers its quorum
// early still waits for its predecessors.
type commitQueue struct {
	mu    sync.Mutex
	byLSN map[wal.LSN]*pendingWrite
	order []wal.LSN // ascending; pops shift it down, so it keeps its array
	// byKey maps every key a pending write touches to the newest pending
	// LSN that touches it.
	byKey map[kv.Key]wal.LSN
	// peerAcked is the per-peer cumulative ack watermark: peer p durably
	// holds every write of the cohort at or below peerAcked[p]. Reset on
	// leadership transitions — a watermark earned under an old epoch may
	// cover LSNs the peer has since logically truncated.
	peerAcked map[string]wal.LSN
}

func newCommitQueue() *commitQueue {
	return &commitQueue{
		byLSN:     make(map[wal.LSN]*pendingWrite),
		byKey:     make(map[kv.Key]wal.LSN),
		peerAcked: make(map[string]wal.LSN),
	}
}

// add inserts a pending write. It reports false if the LSN is already
// pending (a re-proposal the node has already logged, Fig 6 line 5:
// "a follower may already have some of the writes ... these can be
// detected and ignored").
//
//spinnaker:hotpath
func (q *commitQueue) add(p *pendingWrite) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.byLSN[p.lsn]; ok {
		return false
	}
	q.byLSN[p.lsn] = p
	// Writes are added in increasing LSN order in steady state; tolerate
	// out-of-order insertion during recovery by keeping order sorted.
	if n := len(q.order); n == 0 || q.order[n-1] < p.lsn {
		q.order = append(q.order, p.lsn)
	} else {
		i, _ := slices.BinarySearch(q.order, p.lsn)
		q.order = slices.Insert(q.order, i, p.lsn)
	}
	q.indexLocked(p)
	return true
}

// indexLocked records p in byKey; callers hold q.mu.
//
//spinnaker:locked(mu)
func (q *commitQueue) indexLocked(p *pendingWrite) {
	for i := range p.op.Cols {
		k := kv.Key{Row: p.op.Row, Col: p.op.Cols[i].Col}
		if p.lsn > q.byKey[k] {
			q.byKey[k] = p.lsn
		}
	}
}

// markForced records that the local log force for lsn completed.
func (q *commitQueue) markForced(lsn wal.LSN) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if p, ok := q.byLSN[lsn]; ok {
		p.selfForced = true
	}
}

// markForcedThrough records that a follower's log force covers every pending
// write at or below lsn, its cumulative ack watermark. A follower marks
// through ascending watermarks, so its forced writes are a prefix of the
// queue, and the walk back from lsn stops at the first one already marked.
//
//spinnaker:hotpath
func (q *commitQueue) markForcedThrough(lsn wal.LSN) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i, found := slices.BinarySearch(q.order, lsn)
	if found {
		i++
	}
	for i--; i >= 0; i-- {
		p := q.byLSN[q.order[i]]
		if p.selfForced {
			break
		}
		p.selfForced = true
	}
}

// markForcedBatch records that the leader's log force for recs completed,
// and that they were proposed at sent (the stale-propose sweep's clock
// starts when a write leaves, not when it was sequenced): one lock for the
// whole batch.
//
//spinnaker:hotpath
func (q *commitQueue) markForcedBatch(recs []proposeRec, sent time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := range recs {
		if p, ok := q.byLSN[recs[i].LSN]; ok {
			p.selfForced = true
			p.lastPropose = sent
		}
	}
}

// markAckedThrough advances a peer's cumulative ack watermark: the peer
// durably holds every write of the cohort at or below lsn. Watermarks only move forward, so stale or reordered acks — including
// acks carrying LSNs from a prior epoch, which compare below every LSN of
// the current epoch — are ignored.
func (q *commitQueue) markAckedThrough(from string, lsn wal.LSN) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if lsn > q.peerAcked[from] {
		q.peerAcked[from] = lsn
	}
}

// ackCountLocked returns the number of peers among peers whose cumulative
// watermark covers p; a nil peers slice admits every peer. Callers hold
// q.mu. The filter exists for live cohort reconfiguration: a member that has
// been moved out of the cohort may logically truncate what it acked, so its
// acks stop counting toward quorum the moment the leader adopts the new
// membership.
//
//spinnaker:locked(mu)
func (q *commitQueue) ackCountLocked(p *pendingWrite, peers []string) int {
	n := 0
	for peer, through := range q.peerAcked {
		if through >= p.lsn && (peers == nil || slices.Contains(peers, peer)) {
			n++
		}
	}
	return n
}

// popCommittable removes, in LSN order, the maximal prefix of the queue
// where every write has been locally forced and acknowledged by at least
// quorum-1 distinct followers drawn from peers (the leader's own log force
// is its vote, §8.1: a write commits once it is on 2 of 3 logs), and returns
// out with them appended. With cumulative acks this commits the whole
// quorum-acked prefix in one pass. A nil peers slice counts acks from any
// sender (tests).
//
//spinnaker:hotpath
func (q *commitQueue) popCommittable(quorum int, peers []string, out []*pendingWrite) []*pendingWrite {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, lsn := range q.order {
		p := q.byLSN[lsn]
		if !p.selfForced || 1+q.ackCountLocked(p, peers) < quorum {
			break
		}
		out = append(out, p)
		n++
	}
	q.dropHeadLocked(n)
	return out
}

// resetAcks forgets every follower acknowledgement without touching the
// pending writes themselves. Called on
// leadership transitions: acks gathered under an earlier leadership no
// longer prove durability (a peer may have logically truncated writes it
// once acked), so takeover re-proposals must earn a fresh quorum.
func (q *commitQueue) resetAcks() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.peerAcked = make(map[string]wal.LSN)
}

// popThrough removes, in LSN order, all pending writes with LSN ≤ through
// and returns out with them appended. Followers use it when a commit message
// arrives: "apply all pending writes up to a certain LSN" (§5).
//
//spinnaker:hotpath
func (q *commitQueue) popThrough(through wal.LSN, out []*pendingWrite) []*pendingWrite {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for ; n < len(q.order) && q.order[n] <= through; n++ {
		out = append(out, q.byLSN[q.order[n]])
	}
	q.dropHeadLocked(n)
	return out
}

// dropHeadLocked unlinks the n oldest pending writes; callers hold q.mu.
// Each is older than every write left, so a key whose newest pending LSN is
// one of theirs has no pending write left at all.
//
//spinnaker:locked(mu)
func (q *commitQueue) dropHeadLocked(n int) {
	for _, lsn := range q.order[:n] {
		p := q.byLSN[lsn]
		delete(q.byLSN, lsn)
		for i := range p.op.Cols {
			k := kv.Key{Row: p.op.Row, Col: p.op.Cols[i].Col}
			if q.byKey[k] == lsn {
				delete(q.byKey, k)
			}
		}
	}
	q.order = q.order[:copy(q.order, q.order[n:])]
}

// remove unlinks a single pending write (logical truncation of a dead
// branch, or a failed append). It reports whether the LSN was pending. This
// is the rare path, so it rebuilds byKey by scanning the queue.
func (q *commitQueue) remove(lsn wal.LSN) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.byLSN[lsn]; !ok {
		return false
	}
	delete(q.byLSN, lsn)
	i, _ := slices.BinarySearch(q.order, lsn)
	q.order = slices.Delete(q.order, i, i+1)
	clear(q.byKey)
	for _, l := range q.order {
		q.indexLocked(q.byLSN[l])
	}
	return true
}

// drain removes and returns everything, for discarding on role changes.
func (q *commitQueue) drain() []*pendingWrite {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*pendingWrite, 0, len(q.order))
	for _, lsn := range q.order {
		out = append(out, q.byLSN[lsn])
	}
	q.byLSN = make(map[wal.LSN]*pendingWrite)
	q.order = nil
	q.byKey = make(map[kv.Key]wal.LSN)
	q.peerAcked = make(map[string]wal.LSN)
	return out
}

// hasPendingRowIn reports whether any pending write touches a row in
// [low, high); high == "" means the top of the key space. The origin leader
// of a split uses it to drain in-flight writes to the moved sub-range
// before serving a split pull.
func (q *commitQueue) hasPendingRowIn(low, high string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for k := range q.byKey {
		if keyInRange(k.Row, low, high) {
			return true
		}
	}
	return false
}

// latestPending returns the newest pending write for key, if any. The
// leader consults it so version checks and version assignment see writes
// that are sequenced but not yet committed (writes execute in LSN order, so
// a conditional put behind a pending put must observe its effect, §5.1).
func (q *commitQueue) latestPending(key kv.Key) (*pendingWrite, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	lsn, ok := q.byKey[key]
	if !ok {
		return nil, false
	}
	return q.byLSN[lsn], true
}

// len returns the number of pending writes.
func (q *commitQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.order)
}

// head returns the smallest pending LSN, if any.
func (q *commitQueue) head() (wal.LSN, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.order) == 0 {
		return 0, false
	}
	return q.order[0], true
}

// has reports whether lsn is pending.
func (q *commitQueue) has(lsn wal.LSN) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.byLSN[lsn]
	return ok
}

// get returns the pending write for lsn.
func (q *commitQueue) get(lsn wal.LSN) (*pendingWrite, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	p, ok := q.byLSN[lsn]
	return p, ok
}

// snapshotOrder returns the pending LSNs in ascending order.
func (q *commitQueue) snapshotOrder() []wal.LSN {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]wal.LSN(nil), q.order...)
}

// stalePending returns re-proposal record snapshots, in LSN order, for
// locally-forced pending writes whose last propose is older than age,
// marking them as re-proposed now. Snapshots (LSN + raw) are taken under the
// lock so callers never touch pendingWrite fields concurrently with the ack
// path.
func (q *commitQueue) stalePending(age time.Duration) []proposeRec {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	var out []proposeRec
	for _, lsn := range q.order {
		p := q.byLSN[lsn]
		if !p.selfForced {
			continue
		}
		if p.lastPropose.IsZero() || now.Sub(p.lastPropose) >= age {
			p.lastPropose = now
			out = append(out, proposeRec{LSN: p.lsn, Raw: p.raw})
		}
	}
	return out
}

// staleResponders returns the client-facing pendings older than timeout,
// for the leader's WriteTimeout sweep (finish is idempotent, so re-listing
// an already-expired write is harmless).
func (q *commitQueue) staleResponders(timeout time.Duration) []*pendingWrite {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	var out []*pendingWrite
	for _, lsn := range q.order {
		p := q.byLSN[lsn]
		if p.client != nil && !p.enqueuedAt.IsZero() && now.Sub(p.enqueuedAt) > timeout {
			out = append(out, p)
		}
	}
	return out
}
