package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/kv"
	"spinnaker/internal/storage"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Role is a replica's position within its cohort.
type Role int32

// Replica roles. A node is recovering until local recovery and catch-up
// complete, then either follows the cohort leader or (after winning an
// election and finishing takeover) leads.
const (
	RoleRecovering Role = iota
	RoleFollower
	RoleCandidate
	RoleLeader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleRecovering:
		return "recovering"
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", int32(r))
	}
}

// replica is one node's participation in one cohort (key range). A node in
// a 3-way replicated cluster runs 3 replicas over a shared log (§4.1).
// Under live reconfiguration the cohort membership, bounds, and quorum are
// no longer fixed: applyLayout updates them in place when a newer layout is
// adopted, and retire ends the replica when this node leaves the cohort.
type replica struct {
	n       *Node
	rangeID uint32

	// origin is the range this one was split from (layout metadata): a
	// fresh replica of a split-created range must pull its initial state
	// from the origin range's leader before standing for election.
	origin    uint32
	hasOrigin bool

	// stopCh ends this replica's loops when it retires (the node-level
	// stopCh still covers shutdown).
	stopCh chan struct{}

	mu sync.Mutex
	// peers is copy-on-write: applyLayout installs a fresh slice and nothing
	// writes to an installed one, so a reader may keep it past mu.
	peers  []string // the other cohort members (layout-managed)
	quorum int      // majority of the cohort, counting ourselves
	low    string   // serving bounds: [low, high), high=="" means top
	high   string
	home   string // the layout's preferred leader (election tie-break)

	lc            lifecycle // the replica's phase; see lifecycle.go
	epoch         uint32
	nextSeq       uint64
	lastLSN       wal.LSN // f.lst / l.lst
	lastCommitted wal.LSN // f.cmt / l.cmt
	loggedCommit  wal.LSN // leader: the commit point its last RecLastCommitted carried
	leaderID      string
	skipped       *wal.SkippedLSNs

	queue  *commitQueue
	engine *storage.Engine

	// Tombstone-GC watermark state. The leader tracks each peer's durable
	// commit floor (its storage checkpoint, piggybacked on acks) in
	// peerFloors and takes the cohort-wide minimum as the watermark below
	// which compaction may drop tombstones; followers learn that
	// watermark from the leader's commit messages in gcFloor. Floors are
	// monotone while membership is stable (checkpoints never regress
	// across crashes); applyLayout prunes entries when the cohort
	// changes, since a re-joining member restarts from a wiped engine.
	peerFloors map[string]wal.LSN
	gcFloor    wal.LSN

	// pending is the chunk the replica's pending writes are decoded into,
	// under mu: a client's MsgWrite on the leader (submitWriteAsync), a
	// propose batch's writes on a follower (onProposeBatch).
	pending chunk[pendingWrite]

	// Leader-side proposal batcher: writes are sequenced into batchBuf
	// under r.mu and leave as one batch per drain (sendProposals). At
	// most one batch is outstanding: batchOut is the last LSN of the
	// batch sent and not yet resolved (zero when none), and the writes
	// sequenced meanwhile wait in batchBuf until it commits or its force
	// fails (see claimDrainLocked). The replica's one drain loop sends them;
	// batchSending marks a drain claimed for it or running on it, and
	// drainNudge (one slot) wakes it. batchSpare is the buffer the drainer
	// last sent, cleared, which becomes batchBuf at the next swap, so the
	// two alternate instead of regrowing. All guarded by r.mu.
	batchBuf     []proposeRec
	batchSpare   []proposeRec
	batchEnd     int64 // max log offset of buffered records (force target)
	batchSending bool
	batchOut     wal.LSN
	drainNudge   chan struct{}
	logScratch   []wal.Record // onProposeBatch's log append list (AppendBatch keeps none)
	// syncing counts, per peer, the takeover messages (Fig 6 lines 5-6)
	// in flight to it; see proposalPeersLocked. Guarded by mu.
	syncing map[string]int

	// Follower force-and-ack state: onProposeBatch adds each logged batch
	// to ack (guarded by mu) and nudges ackNudge, a one-slot channel;
	// ackLoop takes what accumulated and answers it with one force and one
	// cumulative ack.
	ack      ackDue
	ackNudge chan struct{}

	// Bulk catch-up counters (guarded by r.mu): manifests served as
	// leader, snapshot-path catch-ups absorbed as follower.
	snapshotsServed  int64
	snapshotCatchups int64

	// election bookkeeping
	electionNudge chan struct{}

	// Catch-up (wantCatchup): wanted, and the running run's done channel.
	catchupWanted atomic.Bool
	catchupRun    atomic.Pointer[chan struct{}]

	// m is the replica's hot-path instrumentation (see metrics.go);
	// commitAdvanced (guarded by mu) is when lastCommitted last moved,
	// the time half of the commit-lag metric.
	m              rangeMetrics
	commitAdvanced time.Time
}

// inBoundsLocked reports whether this replica currently serves row; callers
// hold r.mu. Bounds shrink when the range splits: rows that moved to the
// new range are refused with StatusWrongLayout so clients re-route.
//
//spinnaker:locked(mu)
func (r *replica) inBoundsLocked(row string) bool {
	return keyInRange(row, r.low, r.high)
}

// applyLayout updates the replica's bounds and cohort membership to a newer
// layout. On the leader, acks from members that left the cohort stop
// counting toward quorum immediately (tryCommit filters by current peers),
// and the next retransmission sweep re-proposes pending writes to the new
// membership.
func (r *replica) applyLayout(l *cluster.Layout) {
	low, high := l.Bounds(r.rangeID)
	var peers []string
	for _, member := range l.Cohort(r.rangeID) {
		if member != r.n.cfg.ID {
			peers = append(peers, member)
		}
	}
	r.mu.Lock()
	r.low, r.high = low, high
	r.peers = peers
	r.quorum = l.Quorum(r.rangeID)
	r.home = l.HomeNode(r.rangeID)
	// Drop GC floors of members that left: a peer that later re-joins
	// does so with a wiped engine, and its stale pre-departure floor
	// must not let compaction drop tombstones its fresh catch-up still
	// pins (it reports a new floor with its first ack).
	current := make(map[string]bool, len(peers))
	for _, p := range peers {
		current[p] = true
	}
	for p := range r.peerFloors {
		if !current[p] {
			delete(r.peerFloors, p)
		}
	}
	isLeader := r.isLeaderLocked()
	r.mu.Unlock()
	if isLeader {
		// Quorum or membership may have changed; re-evaluate pending
		// writes under the new rules.
		r.tryCommit()
	}
}

// retire ends this node's participation in the cohort: the node is no
// longer a member under the current layout. Loops stop, a held leadership
// is released (triggering an election among the remaining members), our
// election and catch-up markers are withdrawn, and waiting clients are
// failed with an ambiguous outcome (their writes may still commit through
// the surviving members, which hold them in their durable logs).
func (r *replica) retire() {
	r.mu.Lock()
	if !r.retireLocked() {
		r.mu.Unlock()
		return
	}
	r.dropProposalsLocked()
	for _, lsn := range r.queue.snapshotOrder() {
		if p, ok := r.queue.get(lsn); ok {
			p.finish(writeOutcome{status: StatusAmbiguous, detail: "cohort membership changed mid-replication"})
		}
	}
	r.mu.Unlock()
	close(r.stopCh)

	// Disable this engine's maintenance before recording the departure
	// (draining any flush/compaction the node's flush daemon still has in
	// flight from a pre-retirement replica snapshot): a re-join builds a
	// fresh engine over the same per-cohort stores, whose Open sweeps
	// unreferenced blobs and whose wipe persists an empty manifest — a
	// late manifest save from this retired engine would overwrite it with
	// the stale pre-departure table set.
	r.engine.Close()

	// Durably record the departure: local state for this range is stale
	// from this point on, and a future re-join — even one interrupted by
	// a crash before the live adoption path runs — must discard it (see
	// Node.resetRejoinState).
	_ = r.n.meta.Put(departedKey(r.rangeID), []byte{1})

	sess := r.n.coordSess
	// Release the leader znode whenever it carries our id — not only when
	// we still believe we lead. A mid-takeover demotion can leave us
	// holding the znode with a follower role; once this replica is gone,
	// nobody else can clean it up, and the remaining members would wait
	// on it forever. Version-guarded so a claim created between the read
	// and the delete is never the one removed.
	if data, ver, err := sess.GetVersion(leaderPath(r.rangeID)); err == nil && string(data) == r.n.cfg.ID {
		_ = sess.DeleteVersion(leaderPath(r.rangeID), ver)
	}
	if kids, err := sess.Children(candidatesPath(r.rangeID)); err == nil {
		for _, kid := range kids {
			if strings.HasPrefix(kid.Name, "c:"+r.n.cfg.ID+":") {
				_ = sess.Delete(candidatesPath(r.rangeID) + "/" + kid.Name)
			}
		}
	}
	r.n.dropCurrent(r.rangeID)
}

// stepDown relinquishes leadership for a leadership transfer; see
// Node.StepDown.
func (r *replica) stepDown() bool {
	r.mu.Lock()
	if !r.stepDownLocked() {
		r.mu.Unlock()
		return false
	}
	r.mu.Unlock()
	// Guarded release, exactly as in retire and the election loop's
	// orphan cleanup: the demote nudge may already have woken the
	// election loop, which can delete the znode and let a rival claim
	// leadership before this line runs — an unguarded delete here would
	// remove the rival's claim and open a dual-leader window.
	sess := r.n.coordSess
	if data, ver, err := sess.GetVersion(leaderPath(r.rangeID)); err == nil && string(data) == r.n.cfg.ID {
		_ = sess.DeleteVersion(leaderPath(r.rangeID), ver)
	}
	select {
	case r.electionNudge <- struct{}{}:
	default:
	}
	return true
}

// exiting reports whether the replica's loops should stop (node shutdown or
// replica retirement).
func (r *replica) exiting() bool {
	if r.n.stopped() {
		return true
	}
	select {
	case <-r.stopCh:
		return true
	default:
		return false
	}
}

func (r *replica) loggerPrefix() string {
	return fmt.Sprintf("%s/r%d", r.n.cfg.ID, r.rangeID)
}

// --- Write path (paper §5, Figure 4) ---------------------------------------

// submitWriteAsync runs the leader's side of the write protocol (Fig 4) for
// one client write, req, without blocking the caller: the write is decoded
// in place into a pending write from the replica's chunk (decodeWrite),
// sequenced, logged, and handed to the replica's drain loop, and req is
// answered with the outcome when the write commits (or fails). The pending
// write is then the write's commit-queue entry. Not holding a goroutine per
// in-flight write is what lets a single client pipeline many writes through
// one leader link. The WriteTimeout bound is enforced by the commit timer's
// sweep of staleResponders.
//
//spinnaker:hotpath
func (r *replica) submitWriteAsync(req transport.Message) {
	r.mu.Lock()
	// The write aliases the request payload, which nothing writes once
	// received; the reply needs only the request's header.
	p, err := decodeWrite(req.Payload, &r.pending)
	if err != nil {
		r.mu.Unlock()
		return
	}
	req.Payload = nil
	if !r.inBoundsLocked(p.op.Row) {
		r.mu.Unlock()
		r.n.replyWrite(req, r.wrongLayoutOutcome(), 0, nil)
		return
	}
	if !r.mayServeStrongLocked() {
		leader := r.leaderID
		r.mu.Unlock()
		if leader != "" && leader != r.n.cfg.ID {
			r.n.replyWrite(req, writeOutcome{status: StatusNotLeader, detail: leader}, 0, nil)
			return
		}
		r.n.replyWrite(req, writeOutcome{status: StatusUnavailable, detail: "no leader for range"}, 0, nil)
		return
	}
	// Conditional checks run before sequencing (§5.1), against the
	// effective state: the newest pending write for the column if one is
	// queued (writes execute in LSN order), else the committed cell.
	if out, dep := r.checkCondsLocked(p.op); out != nil {
		r.mu.Unlock()
		if dep == nil {
			r.n.replyWrite(req, *out, 0, nil)
			return
		}
		// Hold the reply until the observed uncommitted write resolves;
		// the WriteTimeout bound comes from the client side here (the
		// dependency itself is swept by the leader's timeout timer).
		deferMismatch(dep, *out, r.n, req)
		return
	}
	if err := r.sequenceLocked(p, req); err != nil {
		r.mu.Unlock()
		r.n.replyWrite(req, writeOutcome{status: StatusUnavailable, detail: err.Error()}, 0, nil)
		return
	}
	claimed := r.claimDrainLocked()
	r.mu.Unlock()
	if claimed {
		r.nudgeDrain()
	}
}

// sequenceLocked gives the admitted write p the cohort's next LSN, queues it
// to answer req on commit, logs it and buffers it for the next propose
// batch; callers hold r.mu. On a failed log append nothing is left queued.
//
//spinnaker:locked(mu)
//spinnaker:hotpath
func (r *replica) sequenceLocked(p *pendingWrite, req transport.Message) error {
	// The LSN is every column's version, so nothing in the op changes: the
	// client's payload (p.raw) is the WAL record payload here and the
	// batch-payload body in encodeProposeBatch, with no re-encode.
	lsn := wal.MakeLSN(r.epoch, r.nextSeq)
	r.nextSeq++
	p.lsn, p.client, p.req, p.enqueuedAt = lsn, r.n, req, time.Now()
	r.queue.add(p)
	r.m.keys.Note(p.op.Row)
	rec := wal.Record{Cohort: r.rangeID, Type: wal.RecWrite, LSN: lsn,
		Payload: p.raw}
	end, err := r.n.log.Append(rec)
	if err != nil {
		r.queue.remove(lsn)
		return err
	}
	r.lastLSN = lsn
	r.enqueueProposalLocked(proposeRec{LSN: lsn, Raw: p.raw})
	if end > r.batchEnd {
		r.batchEnd = end
	}
	return nil
}

// wrongLayoutOutcome formats the out-of-bounds rejection. It is a separate,
// un-annotated helper so the formatting stays off the //spinnaker:hotpath
// submit path: it only runs when a client's routing table raced a layout
// change, which is rare and already a retry.
func (r *replica) wrongLayoutOutcome() writeOutcome {
	return writeOutcome{status: StatusWrongLayout,
		detail: fmt.Sprintf("row outside range %d under layout v%d", r.rangeID, r.n.layoutVersion())}
}

// effectiveVersionLocked returns the version a read-your-own-sequenced-
// writes observer would see for key and, when that version comes from a
// sequenced-but-uncommitted write, the pending write carrying it (its LSN is
// the version); callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) effectiveVersionLocked(key kv.Key) (uint64, *pendingWrite) {
	if p, ok := r.queue.latestPending(key); ok {
		return uint64(p.lsn), p
	}
	return r.committedVersionLocked(key), nil
}

// committedVersionLocked returns the committed cell version for key (what
// a strong read would serve); callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) committedVersionLocked(key kv.Key) uint64 {
	if cell, ok := r.engine.Get(key); ok {
		return cell.Version
	}
	return 0
}

// checkCondsLocked evaluates a write's conditional guards against the
// effective state (the newest pending write per column if one is queued —
// writes execute in LSN order, §5.1 — else the committed cell). It returns
// (nil, nil) when every guard passes. On a failure justified by committed
// state alone it returns the mismatch outcome to deliver immediately. On a
// failure that hinges on a sequenced-but-uncommitted write it returns that
// write too: the rejection leaks the pending write's existence, so the
// reply must wait until the pending write commits (then the mismatch is
// consistent with visible state) or dies (then the state that justified
// the rejection never existed, and the client must retry). Callers hold
// r.mu.
//
//spinnaker:locked(mu)
func (r *replica) checkCondsLocked(op WriteOp) (*writeOutcome, *pendingWrite) {
	var dep *pendingWrite
	var deferred *writeOutcome
	for _, c := range op.Cols {
		if !c.Cond {
			continue
		}
		key := kv.Key{Row: op.Row, Col: c.Col}
		cur, pending := r.effectiveVersionLocked(key)
		if cur == c.CondVersion {
			continue
		}
		out := writeOutcome{status: StatusVersionMismatch,
			detail: fmt.Sprintf("column %s at version %d, want %d", c.Col, cur, c.CondVersion)}
		if pending == nil || r.committedVersionLocked(key) != c.CondVersion {
			return &out, nil
		}
		if dep == nil {
			dep, deferred = pending, &out
		}
	}
	return deferred, dep
}

// deferMismatch answers req with a pending-dependent mismatch once dep
// resolves.
func deferMismatch(dep *pendingWrite, out writeOutcome, n *Node, req transport.Message) {
	dep.observe(func(committed bool) {
		if !committed {
			out = writeOutcome{status: StatusUnavailable,
				detail: "conditional check raced an uncommitted write; retry"}
		}
		n.replyWrite(req, out, 0, nil)
	})
}

// enqueueProposalLocked appends rec to the outgoing batch buffer; callers
// hold r.mu. LSN allocation and the enqueue happen in the same critical
// section (submitWriteAsync), so the buffer is ascending by construction
// and batches leave in LSN order.
//
//spinnaker:locked(mu)
func (r *replica) enqueueProposalLocked(rec proposeRec) {
	r.batchBuf = append(r.batchBuf, rec)
}

// claimDrainLocked claims a drain for the replica's drain loop if there is
// something to send, no drain is claimed or running and no batch is
// outstanding; callers hold r.mu and, on true, must call nudgeDrain after
// releasing it. Two callers claim: the writer that sequences into an idle
// batcher (a lone write leaves at once), and tryCommit when the commit
// point passes the outstanding batch (the writes that waited behind it
// leave together). A running drain takes what is sequenced meanwhile
// itself, so it is not woken again for it. One drain loop, swapping the
// LSN-ordered buffer under r.mu, keeps batches leaving in LSN order on the
// in-order links.
//
//spinnaker:locked(mu)
func (r *replica) claimDrainLocked() bool {
	if r.batchSending || !r.batchOut.IsZero() || len(r.batchBuf) == 0 {
		return false
	}
	r.batchSending = true
	return true
}

// dropProposalsLocked discards the batcher's unsent writes and re-arms its
// window, for when this replica stops (or starts) leading: an outstanding
// batch of an earlier term resolves with that term, so the first write of
// the next one leaves at once. Callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) dropProposalsLocked() {
	r.batchBuf = nil
	r.batchEnd = 0
	r.batchOut = 0
}

// nudgeDrain wakes the drain loop for a drain claimDrainLocked claimed. A
// claim is only made while no drain is claimed or running, so the one slot
// is free, and a nudge sent before the loop starts waits in it.
func (r *replica) nudgeDrain() {
	select {
	case r.drainNudge <- struct{}{}:
	default:
	}
}

// drainLoop is the replica's one proposal drainer, for its life: each nudge
// runs drainProposals, which forces the leader's log and so must not run on
// the link goroutine that sequenced the write, and owns the chunk the
// propose payloads are encoded into. It parks between drains.
func (r *replica) drainLoop() {
	props := chunk[byte]{size: proposeBlock}
	for {
		select {
		case <-r.drainNudge:
		case <-r.stopCh:
			return
		case <-r.n.stopCh:
			return
		}
		r.drainProposals(&props)
	}
}

// drainProposals sends the cohort's proposal buffer to the followers, one
// batch at a time, encoding the payloads into props: it swaps out
// everything sequenced since the last swap, sends it to every peer
// (sendProposals), forces the leader's log through the batch in parallel
// (Fig 4's overlap, per batch instead of per write), and commits what the
// acks allow. The batch is then outstanding until it
// resolves: it commits (tryCommit, which claims the next drain) or its
// force fails (the loop below goes on). Writes sequenced meanwhile wait and
// leave together in the next batch, so batch size follows the commit
// round trip — group commit's trick applied to the replication stream.
// The drain ends when the buffer is empty or a batch is outstanding.
func (r *replica) drainProposals(props *chunk[byte]) {
	r.mu.Lock()
	for len(r.batchBuf) > 0 && r.batchOut.IsZero() {
		recs := r.batchBuf
		r.batchBuf, r.batchSpare = r.batchSpare, nil
		end := r.batchEnd
		r.batchEnd = 0
		r.batchOut = recs[len(recs)-1].LSN
		peers := r.proposalPeersLocked()
		r.mu.Unlock()
		// Send first, then force: the followers' round trip overlaps the
		// leader's force (Fig 4).
		sent := time.Now()
		r.sendProposals(props, peers, recs)
		var forceErr error
		if end > 0 {
			forceErr = r.n.log.ForceTo(end)
		}
		if forceErr == nil {
			r.queue.markForcedBatch(recs, sent)
			r.tryCommit()
		} else {
			// The writes are already sequenced, queued, and proposed:
			// followers may log and ack them, and a takeover can re-commit
			// them, so they stay queued. Their clients learn now, rather
			// than at the WriteTimeout sweep, that the outcome is ambiguous
			// (not definite-no-effect).
			out := writeOutcome{status: StatusAmbiguous, detail: forceErr.Error()}
			for _, rec := range recs {
				if p, ok := r.queue.get(rec.LSN); ok {
					p.finish(out)
				}
			}
		}
		clear(recs) // pin no ops
		r.mu.Lock()
		r.batchSpare = recs[:0]
		if forceErr != nil {
			// A failed force resolves the batch: it cannot commit here,
			// and the writes behind it must still be proposed (and
			// answered) rather than wait for a commit that never comes.
			r.batchOut = 0
		}
	}
	r.batchSending = false
	r.mu.Unlock()
}

// proposalPeersLocked returns the peers that proposes go to: every peer but
// those whose takeover message (Fig 6 lines 5-6) is in flight. The
// message's Present lists the writes in our log when it was built, and the
// follower truncates every ambiguous write that the list leaves out, so a
// write sequenced after it that reached the follower first would be
// truncated as a dead branch — and marked committed later without ever
// being applied. A peer left out repairs what it missed as after any lost
// propose: the next propose shows it a sequence gap, or a commit message
// shows it is behind, and it catches up. Callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) proposalPeersLocked() []string {
	if len(r.syncing) == 0 {
		return r.peers
	}
	peers := make([]string, 0, len(r.peers))
	for _, p := range r.peers {
		if r.syncing[p] == 0 {
			peers = append(peers, p)
		}
	}
	return peers
}

// sendProposals sends recs (ascending by LSN) to every peer as one
// MsgProposeBatch, encoded into props (nil allocates it), which counts once
// in ProposeBatches however many peers it goes to. Each follower answers it
// with one cumulative MsgAckBatch.
//
//spinnaker:hotpath
func (r *replica) sendProposals(props *chunk[byte], peers []string, recs []proposeRec) {
	payload := encodeProposeBatch(props, recs)
	r.m.proposes.Inc()
	for _, peer := range peers {
		r.n.send(peer, transport.Message{
			Kind: MsgProposeBatch, Cohort: r.rangeID, Payload: payload,
		})
	}
}

// tryCommit commits the maximal committable prefix of the queue: each write
// is applied to the memtable and its waiting client released (Fig 4:
// "after log force and at least 1 ack: apply W to memtable; return to
// client"). Safe to call from any goroutine.
//
// The pop and the memtable applies happen under r.mu so that version
// checks (which consult the pending queue and then the engine) never
// observe a write in neither place.
//
//spinnaker:hotpath
func (r *replica) tryCommit() {
	var buf [128]*pendingWrite // the popped writes; more spill to the heap
	r.mu.Lock()
	committed := r.queue.popCommittable(r.quorum, r.peers, buf[:0])
	if len(committed) == 0 {
		r.mu.Unlock()
		return
	}
	now := time.Now()
	for _, p := range committed {
		applyOp(r.engine, p.op, p.lsn)
		if p.lsn > r.lastCommitted {
			r.lastCommitted = p.lsn
		}
	}
	r.commitAdvanced = now
	// The outstanding propose batch has committed: the writes that waited
	// behind it leave now, as the next batch.
	claimed := false
	if !r.batchOut.IsZero() && r.lastCommitted >= r.batchOut {
		r.batchOut = 0
		claimed = r.claimDrainLocked()
	}
	r.mu.Unlock()
	if claimed {
		r.nudgeDrain()
	}
	for _, p := range committed {
		r.m.writes.Inc()
		if !p.enqueuedAt.IsZero() {
			r.m.writeLat.Observe(now.Sub(p.enqueuedAt).Nanoseconds())
		}
		p.finish(writeOutcome{status: StatusOK})
	}
}

// --- Follower message handlers ----------------------------------------------

// onProposeBatch handles a propose message (the follower column of Fig 4,
// for a run of one or more writes): append every new record to the shared
// log under one lock acquisition and hand the force and the ack to the
// replica's ack loop, which answers with one force and one cumulative ack
// covering everything this replica durably holds. The force and ack run off
// the link goroutine so concurrent proposes across cohorts share
// group-commit forces.
//
// A cumulative ack of X asserts that this replica's durable log holds every
// (non-truncated) write of the cohort at or below X, so the log must never
// hold a write beyond a hole. Records that would create a sequence gap
// (messages lost across a broken connection) are therefore not appended:
// the batch's tail is dropped, catch-up is nudged for the committed prefix,
// and the leader's retransmission re-proposes the rest in order.
//
//spinnaker:hotpath
func (r *replica) onProposeBatch(m transport.Message) {
	r.mu.Lock()
	if !r.isLeaderLocked() && !r.mayAppendLocked() {
		// Not synced with this term: we may hold dead branches at the
		// term's sequence numbers. Catch-up (or the leader's takeover
		// sync) will deliver these writes' effects.
		r.mu.Unlock()
		return
	}
	ws, err := decodeProposeBatch(m.Payload, &r.pending)
	if err != nil || len(ws) == 0 {
		r.mu.Unlock()
		return
	}
	if m.From != r.leaderID {
		// A propose from a node we do not follow. Equal or lower epochs
		// are rejected: after a takeover, a deposed-but-live leader still
		// sends at the old epoch, and a follower that already follows the
		// new leader but has not bumped its epoch would otherwise lend the
		// old leader acks — letting it commit writes the new leader's
		// history will truncate.
		e := ws[0].lsn.Epoch()
		if e <= r.epoch {
			r.mu.Unlock()
			return
		}
		// A higher epoch: a leader whose term we have not synced with (we
		// are behind on leadership news or, if we lead, deposed; a leader
		// steps down rather than let its next write collide with the new
		// leader's LSN space). We may hold dead branches at the new term's
		// sequence numbers, so we follow it through catch-up and append
		// nothing until then.
		r.followLocked(m.From)
		r.epoch = e
		r.mu.Unlock()
		r.wantCatchup()
		return
	}
	var (
		end int64
		gap bool
	)
	// The batch's writes were decoded into their pending entries, from the
	// replica's chunk; the log records go into the replica's scratch list.
	toLog := r.logScratch[:0]
	last := r.lastLSN
	for i := range ws {
		w := &ws[i]
		if e := w.lsn.Epoch(); e > r.epoch {
			r.epoch = e
		}
		if w.lsn <= r.lastCommitted || r.queue.has(w.lsn) {
			// Already committed or already logged and pending (a
			// re-proposal, Fig 6 line 5: "these can be detected and
			// ignored"); the force below still covers it before the
			// cumulative ack claims it.
			continue
		}
		// A sequence gap: appending past the hole would advance lastLSN
		// over writes we do not hold, and both our cumulative ack and our
		// election candidacy (max n.lst, Fig 7 line 6) would then
		// overstate our log — a gapped follower could win over the one
		// actually holding the committed writes in the hole, and they
		// would be lost. A zero lastLSN gets no exemption: a cohort's
		// first write is seq 1 (which passes), and an empty-log follower
		// that accepted a mid-stream propose would ack a prefix it never
		// received.
		if w.lsn.Seq() > last.Seq()+1 {
			gap = true
			break
		}
		// Rows outside our (possibly already-shrunk) bounds are appended
		// like any other: such a write was sequenced before the leader
		// adopted the split (its submit path refuses the row afterwards),
		// and the split pull that hands the moved sub-range to the new
		// cohort is gated on the origin leader draining exactly these
		// writes — so they always commit (and are captured by the pull)
		// or resolve before the new range can serve. Refusing the ack
		// instead would wedge the cohort: the commit watermark is
		// cumulative, so one in-flight write to the moved span that can
		// no longer gather a quorum stalls every write behind it, and
		// with it the drain the split pull is waiting on.
		//
		// Zero-copy hand-off: raw slices the message payload (see
		// decodeProposeBatch), so the WAL gets the already-encoded op
		// without a re-encode and the memtable shares the payload's
		// bytes.
		toLog = append(toLog, wal.Record{Cohort: r.rangeID, Type: wal.RecWrite,
			LSN: w.lsn, Payload: w.raw})
		if w.lsn > last {
			last = w.lsn
		}
	}
	if len(toLog) > 0 {
		// One group frame, one checksum, one force target for the whole
		// batch (vs one frame and bookkeeping pass per record). The append
		// is all-or-nothing; on error nothing entered the log, so neither
		// lastLSN nor the queue advances and the cumulative ack stays
		// honest.
		if e, err := r.n.log.AppendBatch(toLog); err == nil {
			end = e
			r.lastLSN = last
			// The logged writes are the batch's writes with the LSNs of
			// toLog, in the same (ascending) order.
			j := 0
			for i := range ws {
				if j < len(toLog) && ws[i].lsn == toLog[j].LSN {
					r.queue.add(&ws[i])
					j++
				}
			}
		}
		clear(toLog) // pin no payloads
		r.logScratch = toLog[:0]
	}
	if gap {
		r.gapLocked()
	}
	r.ack.add(end, r.lastLSN, m.From)
	r.mu.Unlock()
	select {
	case r.ackNudge <- struct{}{}:
	default: // the loop is already due to run
	}
	if gap {
		// We missed proposes (e.g. across a healed partition); ask the
		// leader for the committed writes in between.
		r.wantCatchup()
	}
}

// ackDue is what a follower owes the leader for the proposes it logged since
// its ack loop last ran: a force and one cumulative ack. Acks are
// cumulative, so any number of batches merge into one.
type ackDue struct {
	due bool
	// end is the highest log offset a batch appended through. A batch that
	// appended nothing (all re-proposals) sets all instead: the records it
	// re-acks may belong to an append whose force is still running, so the
	// whole log is forced.
	end     int64
	all     bool
	through wal.LSN // the ack watermark: lastLSN after the latest batch
	to      string  // the sender of the latest batch
}

// add merges one logged batch into the debt.
//
//spinnaker:hotpath
func (a *ackDue) add(end int64, through wal.LSN, to string) {
	a.due = true
	if end == 0 {
		a.all = true
	} else if end > a.end {
		a.end = end
	}
	a.through, a.to = through, to
}

// ackLoop forces and acks for the replica's follower side, one loop per
// replica instead of a goroutine per batch: each round takes everything
// onProposeBatch logged since the last one, forces through it, marks the
// pending writes forced and sends one cumulative MsgAckBatch. It runs for
// the replica's life and owns the chunk the ack payloads are encoded into.
func (r *replica) ackLoop() {
	acks := chunk[byte]{size: ackBlock}
	for {
		select {
		case <-r.ackNudge:
		case <-r.stopCh:
			return
		case <-r.n.stopCh:
			return
		}
		r.mu.Lock()
		a := r.ack
		r.ack = ackDue{}
		r.mu.Unlock()
		if a.due {
			r.payAck(a, &acks)
		}
	}
}

// payAck forces the log through a, marks the pending writes it covers
// forced and sends the cumulative ack, encoded into acks. A failed force
// sends no ack.
func (r *replica) payAck(a ackDue, acks *chunk[byte]) {
	var err error
	if a.all {
		err = r.n.log.Force()
	} else {
		err = r.n.log.ForceTo(a.end)
	}
	if err != nil {
		return
	}
	if !a.through.IsZero() {
		r.queue.markForcedThrough(a.through)
		if ParanoidAckChecks {
			r.verifyAckClaim(a.through)
		}
		r.n.send(a.to, transport.Message{Kind: MsgAckBatch, Cohort: r.rangeID,
			Payload: encodeAck(acks, a.through, r.engine.Checkpoint())})
	}
}

// onAckBatch advances a follower's cumulative acked-through watermark
// (leader side) and commits the maximal quorum-acked prefix in one pass.
//
//spinnaker:hotpath
func (r *replica) onAckBatch(m transport.Message) {
	lsn, floor, err := decodeAck(m.Payload)
	if err != nil {
		return
	}
	r.noteFloor(m.From, floor)
	r.queue.markAckedThrough(m.From, lsn)
	r.tryCommit()
}

// noteFloor records a peer's reported durable commit floor (its storage
// checkpoint). Monotone max: floors never regress while the peer stays in
// the cohort, so a reordered stale ack can only under-report — which is
// safe (a lower floor only delays tombstone GC).
func (r *replica) noteFloor(from string, floor wal.LSN) {
	if floor.IsZero() {
		return
	}
	r.mu.Lock()
	if floor > r.peerFloors[from] {
		r.peerFloors[from] = floor
	}
	r.mu.Unlock()
}

// gcWatermarkLocked computes the cohort tombstone-GC watermark: the
// minimum durable commit floor across current cohort members — our own
// storage checkpoint and every peer's reported floor; a peer that has not
// reported yet pins the watermark at zero (no tombstone GC). Every
// member's future catch-up advertises f.cmt at or above its floor (local
// recovery raises f.cmt to the checkpoint), so EntriesSince(f.cmt) remains
// complete — deletes included — for every possible requester as long as
// compaction drops nothing above this watermark. Callers hold r.mu.
//
//spinnaker:locked(mu)
func (r *replica) gcWatermarkLocked() wal.LSN {
	gc := r.engine.Checkpoint()
	for _, p := range r.peers {
		f, ok := r.peerFloors[p]
		if !ok {
			return 0
		}
		if f < gc {
			gc = f
		}
	}
	return gc
}

// tombstoneGC returns the watermark this replica's compactions must
// respect: the leader computes it from the reported floors, followers use
// the value learned from the leader's commit messages.
func (r *replica) tombstoneGC() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.isLeaderLocked() {
		return r.gcWatermarkLocked()
	}
	return r.gcFloor
}

// onCommitMsg handles the leader's periodic asynchronous commit message
// (§5): apply all pending writes up to the LSN to the memtable and record
// the last committed LSN with a non-forced log write. The piggybacked
// tombstone-GC watermark gates this replica's own compactions.
func (r *replica) onCommitMsg(m transport.Message) {
	lsn, gc, err := decodeCommitMsg(m.Payload)
	if err != nil {
		return
	}
	if !gc.IsZero() {
		r.mu.Lock()
		if gc > r.gcFloor {
			r.gcFloor = gc
		}
		r.mu.Unlock()
	}
	r.applyCommitted(lsn, false)
}

// applyCommitted advances the follower's committed state through lsn.
//
// A commit LSN from the steady-state protocol (viaCatchup=false) may only
// advance past writes this replica actually holds, and only on a replica
// synced with the leader's term (mayAdvanceCommitLocked): a recovering
// replica may hold dead branches the new term truncated, and one that
// detected a sequence gap must not mark state committed that only the
// catch-up phase can deliver — otherwise its later catch-up request would
// advertise an f.cmt above its real state and the leader would skip the
// missing writes. Catch-up responses (viaCatchup=true) carry the state
// itself, so they advance unconditionally.
//
//spinnaker:hotpath
func (r *replica) applyCommitted(lsn wal.LSN, viaCatchup bool) {
	var buf [128]*pendingWrite // the popped writes; more spill to the heap
	r.mu.Lock()
	if lsn <= r.lastCommitted {
		r.mu.Unlock()
		return
	}
	behind := false
	if !viaCatchup {
		if lsn > r.lastLSN {
			behind = true
			lsn = r.lastLSN // commit only what we provably hold
		}
		if !r.mayAdvanceCommitLocked() || lsn <= r.lastCommitted {
			r.mu.Unlock()
			r.wantCatchup()
			return
		}
	}
	popped := r.queue.popThrough(lsn, buf[:0])
	for _, p := range popped {
		applyOp(r.engine, p.op, p.lsn)
	}
	r.lastCommitted = lsn
	r.commitAdvanced = time.Now()
	r.mu.Unlock()

	// Non-forced log write of the last committed LSN (§5).
	_, _ = r.n.log.Append(wal.Record{
		Cohort: r.rangeID, Type: wal.RecLastCommitted, LSN: lsn,
	})
	for _, p := range popped {
		p.finish(writeOutcome{status: StatusOK})
	}
	if behind {
		// The leader has committed writes we never saw.
		r.wantCatchup()
	}
}

// sendCommitMessages is invoked by the node's commit timer on leader
// replicas: followers are told to apply everything up to the last committed
// LSN, and the leader records the same LSN locally, non-forced (§5), if it
// moved since its last record. The
// same tick retransmits proposes that have gone unacknowledged for more
// than two commit periods — TCP's retransmission made explicit, needed for
// liveness when a propose is lost across a broken connection.
func (r *replica) sendCommitMessages() {
	r.mu.Lock()
	if !r.isLeaderLocked() {
		r.mu.Unlock()
		return
	}
	lsn := r.lastCommitted
	gc := r.gcWatermarkLocked()
	peers := r.peers
	moved := lsn > r.loggedCommit
	r.loggedCommit = lsn
	r.mu.Unlock()
	if !lsn.IsZero() {
		payload := encodeCommitMsg(lsn, gc)
		for _, peer := range peers {
			r.n.send(peer, transport.Message{Kind: MsgCommit, Cohort: r.rangeID, Payload: payload})
		}
	}
	if moved {
		_, _ = r.n.log.Append(wal.Record{Cohort: r.rangeID, Type: wal.RecLastCommitted, LSN: lsn})
	}

	if stale := r.queue.stalePending(2 * r.n.cfg.CommitPeriod); len(stale) > 0 {
		r.reproposeRecs(stale)
	}
	// Fail writes that have waited longer than the write timeout: nothing
	// blocks on a write, so this sweep is what enforces the bound.
	for _, p := range r.queue.staleResponders(r.n.cfg.WriteTimeout) {
		p.finish(writeOutcome{status: StatusAmbiguous, detail: "write timed out awaiting quorum"})
	}
	r.tryCommit()
}

// reproposeRecs retransmits pending writes to every peer. Records are old by
// construction (sequenced at least one drain of the batcher ago), so
// followers either hold them already (deduped by LSN) or hit them as the
// contiguous continuation of their log.
func (r *replica) reproposeRecs(recs []proposeRec) {
	r.mu.Lock()
	peers := r.proposalPeersLocked()
	r.mu.Unlock()
	r.sendProposals(nil, peers, recs)
}

// --- Read path (§3, §5) -----------------------------------------------------

// get serves a read. Strongly consistent reads are only legal at the
// leader (the client routes them there; we enforce it), and only once the
// takeover is complete (open): a mid-takeover leader's engine may not yet
// reflect writes the previous leader committed and acknowledged, so
// serving before Fig 6 line 10 would read committed state stale. Timeline
// reads are served by any replica and may be stale by up to one commit
// period. The reply's Value is serveGet's: read-only.
//
//spinnaker:aliases
//spinnaker:hotpath
func (r *replica) get(req getReq) getResp {
	start := time.Now()
	resp := r.serveGet(req)
	if resp.Status == StatusOK || resp.Status == StatusNotFound {
		if req.Consistent {
			r.m.strongReads.Inc()
		} else {
			r.m.timelineReads.Inc()
		}
		r.m.readLat.Observe(time.Since(start).Nanoseconds())
	}
	return resp
}

// serveGet's Value on a table hit aliases the table's blob (Engine.Get).
//
//spinnaker:aliases
//spinnaker:hotpath
func (r *replica) serveGet(req getReq) getResp {
	r.mu.Lock()
	inBounds := r.inBoundsLocked(req.Row)
	isLeader := r.isLeaderLocked()
	open := r.mayServeStrongLocked()
	timeline := r.mayServeTimelineLocked()
	leader := r.leaderID
	r.mu.Unlock()
	if !inBounds {
		// The row moved to another range (split/rebalance); even a
		// timeline read must not serve it from our engine, where it may
		// linger arbitrarily stale.
		return getResp{Status: StatusWrongLayout}
	}
	if req.Consistent {
		if !isLeader {
			return getResp{Status: StatusNotLeader, Value: []byte(leader)}
		}
		if !open {
			return getResp{Status: StatusUnavailable}
		}
	} else if !timeline {
		// A joining member that has not finished catch-up holds an
		// empty (or partial) engine, and a deposed leader may hold dead
		// writes: serving a timeline read here would answer "not found"
		// for long-committed rows, or a value no leader committed.
		// Let the client retry another cohort member.
		return getResp{Status: StatusUnavailable}
	}
	cell, ok := r.engine.Get(kv.Key{Row: req.Row, Col: req.Col})
	if !ok || cell.Deleted {
		return getResp{Status: StatusNotFound, Version: cell.Version}
	}
	return getResp{Status: StatusOK, Value: cell.Value, Version: cell.Version}
}

// getRow serves a whole-row read with the same consistency rules.
func (r *replica) getRow(req getReq) rowResp {
	start := time.Now()
	resp := r.serveGetRow(req)
	if resp.Status == StatusOK || resp.Status == StatusNotFound {
		if req.Consistent {
			r.m.strongReads.Inc()
		} else {
			r.m.timelineReads.Inc()
		}
		r.m.readLat.Observe(time.Since(start).Nanoseconds())
	}
	return resp
}

func (r *replica) serveGetRow(req getReq) rowResp {
	r.mu.Lock()
	inBounds := r.inBoundsLocked(req.Row)
	isLeader := r.isLeaderLocked()
	open := r.mayServeStrongLocked()
	timeline := r.mayServeTimelineLocked()
	r.mu.Unlock()
	if !inBounds {
		return rowResp{Status: StatusWrongLayout}
	}
	if req.Consistent {
		if !isLeader {
			return rowResp{Status: StatusNotLeader}
		}
		if !open {
			return rowResp{Status: StatusUnavailable}
		}
	} else if !timeline {
		// See get: a mid-catch-up engine must not answer timeline reads.
		return rowResp{Status: StatusUnavailable}
	}
	entries := r.engine.GetRow(req.Row)
	if len(entries) == 0 {
		return rowResp{Status: StatusNotFound}
	}
	return rowResp{Status: StatusOK, Entries: entries}
}

// --- State requests (takeover, Fig 6 line 4) -------------------------------

func (r *replica) onStateReq(m transport.Message) {
	r.mu.Lock()
	cmt := r.lastCommitted
	r.mu.Unlock()
	r.n.reply(m, transport.Message{Cohort: r.rangeID, Payload: encodeLSN(cmt)})
}

// Stats reporting for tests and tooling.
type ReplicaStats struct {
	Range         uint32
	Role          Role
	Epoch         uint32
	LastLSN       wal.LSN
	LastCommitted wal.LSN
	Pending       int
	Leader        string
	Open          bool
	Quorum        int
	Peers         []string
	Low, High     string

	// Bulk catch-up counters: snapshot manifests served (leader side) and
	// snapshot-path catch-ups absorbed (follower side).
	SnapshotsServed  int64
	SnapshotCatchups int64
}

func (r *replica) stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaStats{
		Range:         r.rangeID,
		Role:          r.roleLocked(),
		Epoch:         r.epoch,
		LastLSN:       r.lastLSN,
		LastCommitted: r.lastCommitted,
		Pending:       r.queue.len(),
		Leader:        r.leaderID,
		Open:          r.mayServeStrongLocked(),
		Quorum:        r.quorum,
		Peers:         append([]string(nil), r.peers...),
		Low:           r.low,
		High:          r.high,

		SnapshotsServed:  r.snapshotsServed,
		SnapshotCatchups: r.snapshotCatchups,
	}
}

// ParanoidAckChecks enables expensive verification of the cumulative-ack
// invariant before every batch ack (debug aid; the core test suite wires
// it to SPINNAKER_PARANOIA=1).
var ParanoidAckChecks bool

// verifyAckClaim checks the cumulative-ack invariant: every non-skipped
// LSN of this cohort at or below through is in our durable log (same-epoch
// sequence contiguity; cross-epoch gaps are legal when a new leader's
// sequence continues above truncated branches).
func (r *replica) verifyAckClaim(through wal.LSN) {
	held := make(map[wal.LSN]bool)
	_ = r.n.log.ScanCohort(r.rangeID, func(rec wal.Record) error {
		if rec.Type == wal.RecWrite {
			held[rec.LSN] = true
		}
		return nil
	})
	r.mu.Lock()
	skipped := r.skipped
	cmt := r.lastCommitted
	r.mu.Unlock()
	// Reconstruct the set of LSNs that must exist: walk epochs seen in the
	// log up to through; within the max epoch, every seq ≤ through.Seq()
	// beyond the previous epoch max must be held or skipped or ≤ cmt
	// (captured by SSTables after truncation). This is approximate but
	// catches the dangerous case: a hole above cmt.
	for seq := cmt.Seq() + 1; seq <= through.Seq(); seq++ {
		l := wal.MakeLSN(through.Epoch(), seq)
		if l > through {
			break
		}
		if !held[l] && !skipped.Contains(l) {
			// Check lower epochs for the same seq (epoch change mid-range).
			found := false
			for e := through.Epoch(); e > 0; e-- {
				if held[wal.MakeLSN(e-1, seq)] || skipped.Contains(wal.MakeLSN(e-1, seq)) {
					found = true
					break
				}
			}
			if !found {
				fmt.Printf("PARANOIA[%s]: ack %s claims seq %d but log lacks it (cmt=%s)\n",
					r.loggerPrefix(), through, seq, cmt)
			}
		}
	}
}
