package core

import (
	"testing"
	"time"

	"spinnaker/internal/kv"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

func pw(seq uint64, row, col string) *pendingWrite {
	return &pendingWrite{
		lsn: wal.MakeLSN(1, seq),
		op:  WriteOp{Row: row, Cols: []ColWrite{{Col: col, Version: seq}}},
	}
}

func TestCommitQueueAddDedupes(t *testing.T) {
	q := newCommitQueue()
	if !q.add(pw(1, "r", "c")) {
		t.Fatal("first add rejected")
	}
	if q.add(pw(1, "r", "c")) {
		t.Fatal("duplicate LSN accepted (re-proposals must be ignored)")
	}
	if q.len() != 1 {
		t.Errorf("len = %d", q.len())
	}
}

func TestCommitQueuePopCommittableInOrder(t *testing.T) {
	q := newCommitQueue()
	for seq := uint64(1); seq <= 3; seq++ {
		q.add(pw(seq, "r", "c"))
	}
	// Nothing is committable before forces/acks.
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatalf("popped %d writes with no acks", len(got))
	}
	// LSN 2 satisfied first (its force completed, and the follower's
	// watermark covers it): commits must still wait for LSN 1, whose local
	// force is outstanding (writes execute in LSN order within a cohort,
	// §5.1).
	q.markForced(wal.MakeLSN(1, 2))
	q.markAckedThrough("f1", wal.MakeLSN(1, 2))
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatalf("LSN 2 committed ahead of LSN 1")
	}
	q.markForced(wal.MakeLSN(1, 1))
	got := q.popCommittable(2, nil, nil)
	if len(got) != 2 || got[0].lsn != wal.MakeLSN(1, 1) || got[1].lsn != wal.MakeLSN(1, 2) {
		t.Fatalf("popped %d writes, want [1.1 1.2]", len(got))
	}
	// LSN 3 still pending.
	if q.len() != 1 {
		t.Errorf("len = %d after pop", q.len())
	}
}

func TestCommitQueueQuorumRule(t *testing.T) {
	q := newCommitQueue()
	q.add(pw(1, "r", "c"))
	// An ack without the local force is not enough (the commit rule is
	// 2-of-3 logs *including* the leader's, §8.1).
	q.markAckedThrough("f1", wal.MakeLSN(1, 1))
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatal("committed without local force")
	}
	q.markForced(wal.MakeLSN(1, 1))
	if got := q.popCommittable(2, nil, nil); len(got) != 1 {
		t.Fatal("not committed with force + 1 ack")
	}
}

func TestCommitQueuePopThrough(t *testing.T) {
	q := newCommitQueue()
	for seq := uint64(1); seq <= 5; seq++ {
		q.add(pw(seq, "r", "c"))
	}
	got := q.popThrough(wal.MakeLSN(1, 3), nil)
	if len(got) != 3 {
		t.Fatalf("popThrough(1.3) = %d writes", len(got))
	}
	if q.len() != 2 {
		t.Errorf("len = %d", q.len())
	}
	if head, ok := q.head(); !ok || head != wal.MakeLSN(1, 4) {
		t.Errorf("head = %v,%v", head, ok)
	}
}

func TestCommitQueueLatestPendingPerKey(t *testing.T) {
	q := newCommitQueue()
	q.add(pw(1, "r", "a"))
	q.add(pw(2, "r", "a"))
	q.add(pw(3, "r", "b"))
	p, ok := q.latestPending(kv.Key{Row: "r", Col: "a"})
	if !ok || p.lsn != wal.MakeLSN(1, 2) {
		t.Fatalf("latestPending(a) = %v,%v", p, ok)
	}
	// Popping the newer write reveals... nothing for "a" if both popped;
	// popThrough(1.2) removes 1 and 2.
	q.popThrough(wal.MakeLSN(1, 2), nil)
	if _, ok := q.latestPending(kv.Key{Row: "r", Col: "a"}); ok {
		t.Error("latestPending(a) found after pop")
	}
	if p, ok := q.latestPending(kv.Key{Row: "r", Col: "b"}); !ok || p.lsn != wal.MakeLSN(1, 3) {
		t.Errorf("latestPending(b) = %v,%v", p, ok)
	}
}

func TestCommitQueueLatestPendingRollsBack(t *testing.T) {
	// Removing the newest pending for a key must re-expose the older one.
	q := newCommitQueue()
	q.add(pw(1, "r", "a"))
	q.add(pw(2, "r", "a"))
	if !q.remove(wal.MakeLSN(1, 2)) {
		t.Fatal("remove failed")
	}
	p, ok := q.latestPending(kv.Key{Row: "r", Col: "a"})
	if !ok || p.lsn != wal.MakeLSN(1, 1) {
		t.Fatalf("latestPending after remove = %v,%v", p, ok)
	}
}

func TestCommitQueueRemove(t *testing.T) {
	q := newCommitQueue()
	for seq := uint64(1); seq <= 3; seq++ {
		q.add(pw(seq, "r", "c"))
	}
	if !q.remove(wal.MakeLSN(1, 2)) {
		t.Fatal("remove existing failed")
	}
	if q.remove(wal.MakeLSN(1, 2)) {
		t.Fatal("remove absent succeeded")
	}
	order := q.snapshotOrder()
	if len(order) != 2 || order[0] != wal.MakeLSN(1, 1) || order[1] != wal.MakeLSN(1, 3) {
		t.Errorf("order after remove = %v", order)
	}
	if q.has(wal.MakeLSN(1, 2)) {
		t.Error("removed LSN still present")
	}
}

func TestCommitQueueOutOfOrderInsertSorted(t *testing.T) {
	// Recovery can insert pendings out of order; the queue keeps them
	// sorted so commits stay in LSN order.
	q := newCommitQueue()
	for _, seq := range []uint64{5, 2, 9, 1} {
		q.add(pw(seq, "r", "c"))
	}
	order := q.snapshotOrder()
	want := []uint64{1, 2, 5, 9}
	for i, lsn := range order {
		if lsn.Seq() != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCommitQueueDrain(t *testing.T) {
	q := newCommitQueue()
	q.add(pw(1, "r", "c"))
	q.add(pw(2, "r", "c"))
	got := q.drain()
	if len(got) != 2 || q.len() != 0 {
		t.Fatalf("drain = %d entries, len %d", len(got), q.len())
	}
	if _, ok := q.latestPending(kv.Key{Row: "r", Col: "c"}); ok {
		t.Error("key index survived drain")
	}
}

func TestCommitQueueStalePending(t *testing.T) {
	q := newCommitQueue()
	q.add(pw(1, "r", "c"))
	q.add(pw(2, "r", "c"))
	// Unforced writes are never retransmitted (their own force path will
	// propose them).
	if stale := q.stalePending(0); len(stale) != 0 {
		t.Fatalf("unforced writes retransmitted: %d", len(stale))
	}
	q.markForced(wal.MakeLSN(1, 1))
	q.markForced(wal.MakeLSN(1, 2))
	// Everything forced is stale initially (never proposed).
	stale := q.stalePending(time.Hour)
	if len(stale) != 2 {
		t.Fatalf("stale = %d, want 2", len(stale))
	}
	if stale[0].LSN != wal.MakeLSN(1, 1) || len(stale[0].Op.Cols) != 1 {
		t.Errorf("snapshot = %+v", stale[0])
	}
	// Just marked: nothing stale at a long threshold.
	if again := q.stalePending(time.Hour); len(again) != 0 {
		t.Fatalf("stale after touch = %d", len(again))
	}
	// With a zero threshold everything is always stale.
	if again := q.stalePending(0); len(again) != 2 {
		t.Fatalf("stale at zero age = %d", len(again))
	}
}

// replies is a writeReplier that records the outcomes it is asked to send.
type replies []writeOutcome

func (r *replies) replyWrite(_ transport.Message, out writeOutcome, _ wal.LSN, _ int) {
	*r = append(*r, out)
}

func TestPendingWriteFinishOnce(t *testing.T) {
	var got replies
	p := &pendingWrite{client: &got}
	p.finish(writeOutcome{status: StatusOK})
	p.finish(writeOutcome{status: StatusUnavailable}) // must not respond twice
	if len(got) != 1 || got[0].status != StatusOK {
		t.Errorf("outcomes = %+v, want exactly one StatusOK", got)
	}
	// Follower-side pendings have no responder; finish must not panic.
	(&pendingWrite{}).finish(writeOutcome{})
}

// pwAt builds a pending write at an explicit epoch.
func pwAt(epoch uint32, seq uint64, row, col string) *pendingWrite {
	return &pendingWrite{
		lsn: wal.MakeLSN(epoch, seq),
		op:  WriteOp{Row: row, Cols: []ColWrite{{Col: col, Version: seq}}},
	}
}

func TestCommitQueueCumulativeAckCommitsPrefix(t *testing.T) {
	// One cumulative ack commits the whole covered prefix in one pass.
	q := newCommitQueue()
	for seq := uint64(1); seq <= 5; seq++ {
		q.add(pw(seq, "r", "c"))
		q.markForced(wal.MakeLSN(1, seq))
	}
	q.markAckedThrough("f1", wal.MakeLSN(1, 4))
	got := q.popCommittable(2, nil, nil)
	if len(got) != 4 || got[0].lsn != wal.MakeLSN(1, 1) || got[3].lsn != wal.MakeLSN(1, 4) {
		t.Fatalf("popped %d writes, want the 4-write prefix", len(got))
	}
	if q.len() != 1 {
		t.Errorf("len = %d after prefix commit", q.len())
	}
}

func TestCommitQueueCumulativeAckOutOfOrder(t *testing.T) {
	// Batch acks are sent by concurrent force goroutines and may arrive
	// reordered; the watermark must only move forward.
	q := newCommitQueue()
	for seq := uint64(1); seq <= 6; seq++ {
		q.add(pw(seq, "r", "c"))
		q.markForced(wal.MakeLSN(1, seq))
	}
	q.markAckedThrough("f1", wal.MakeLSN(1, 5))
	q.markAckedThrough("f1", wal.MakeLSN(1, 2)) // stale, reordered: ignored
	got := q.popCommittable(2, nil, nil)
	if len(got) != 5 {
		t.Fatalf("popped %d writes after reordered acks, want 5", len(got))
	}
}

func TestCommitQueueCumulativeAckStaleEpoch(t *testing.T) {
	// A duplicate/stale ack carrying an LSN from a prior epoch compares
	// below every current-epoch LSN and must not commit anything.
	q := newCommitQueue()
	q.add(pwAt(2, 7, "r", "c"))
	q.markForced(wal.MakeLSN(2, 7))
	q.markAckedThrough("f1", wal.MakeLSN(1, 99)) // epoch 1 watermark
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatalf("committed %d writes on a prior-epoch ack", len(got))
	}
	q.markAckedThrough("f1", wal.MakeLSN(2, 7))
	if got := q.popCommittable(2, nil, nil); len(got) != 1 {
		t.Fatal("not committed after current-epoch ack")
	}
}

func TestCommitQueueQuorumAckFromStaleLeaderEpoch(t *testing.T) {
	// The partitioned-away-stale-leader scenario, from the NEW leader's
	// commit queue: on takeover the queue holds the old epoch's
	// unresolved writes (1.5, 1.6) plus a fresh epoch-2 write, acks are
	// reset (takeover, Fig 6 line 9), and then a full QUORUM of
	// acknowledgements carrying old-epoch LSNs arrives — delayed
	// MsgAckBatch watermarks earned under the deposed leader that the
	// partition held in flight. Old-epoch LSNs compare below every
	// epoch-2 LSN, so they must commit nothing of epoch 2; and because
	// acks were reset, they must not resurrect durability claims for the
	// re-proposals either (the peers may have logically truncated those
	// writes since earning the watermarks).
	q := newCommitQueue()
	q.add(pwAt(1, 5, "r", "c"))
	q.add(pwAt(1, 6, "r", "c"))
	q.add(pwAt(2, 7, "r", "c"))
	// Pre-takeover state: everything forced, stale quorum on 1.5.
	for _, lsn := range []wal.LSN{wal.MakeLSN(1, 5), wal.MakeLSN(1, 6), wal.MakeLSN(2, 7)} {
		q.markForced(lsn)
	}
	q.markAckedThrough("f1", wal.MakeLSN(1, 5))
	q.markAckedThrough("f2", wal.MakeLSN(1, 6))

	// Takeover: the new leader discards every pre-transition ack.
	q.resetAcks()

	// The delayed stale-epoch quorum lands: two distinct peers, both
	// claiming old-epoch watermarks (f2's even covers 1.6 again).
	q.markAckedThrough("f1", wal.MakeLSN(1, 6))
	q.markAckedThrough("f2", wal.MakeLSN(1, 6))
	got := q.popCommittable(2, nil, nil)
	// The re-proposed old-epoch writes commit — these acks are fresh
	// answers to the re-proposals and genuinely cover 1.5 and 1.6 — but
	// the epoch-2 write must NOT ride along on old-epoch watermarks.
	if len(got) != 2 || got[0].lsn != wal.MakeLSN(1, 5) || got[1].lsn != wal.MakeLSN(1, 6) {
		t.Fatalf("popped %d writes, want the two re-proposed 1.x writes", len(got))
	}
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatal("epoch-2 write committed on a quorum of stale-epoch acks")
	}
	// An old-epoch watermark beyond anything pending (earned on a branch
	// that was since logically truncated) still compares below epoch 2.
	q.markAckedThrough("f1", wal.MakeLSN(1, 99))
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatal("ack for a truncated LSN committed something")
	}
	// Only a current-epoch acknowledgement commits the epoch-2 write.
	q.markAckedThrough("f1", wal.MakeLSN(2, 7))
	if got := q.popCommittable(2, nil, nil); len(got) != 1 || got[0].lsn != wal.MakeLSN(2, 7) {
		t.Fatal("epoch-2 write did not commit on its own epoch's ack")
	}
}

func TestPendingWriteObservers(t *testing.T) {
	// Deferred conditional-put mismatches hang off the pending write
	// they observed; the observer must fire exactly once with the
	// write's fate, and late registration runs immediately.
	p := pw(1, "r", "c")
	var got []bool
	p.observe(func(ok bool) { got = append(got, ok) })
	p.finish(writeOutcome{status: StatusOK})
	p.finish(writeOutcome{status: StatusAmbiguous}) // idempotent
	if len(got) != 1 || !got[0] {
		t.Fatalf("observers after commit = %v, want [true]", got)
	}
	p.observe(func(ok bool) { got = append(got, ok) })
	if len(got) != 2 || !got[1] {
		t.Fatalf("late observer = %v, want immediate true", got)
	}

	q := pw(2, "r", "c")
	q.observe(func(ok bool) { got = append(got, ok) })
	q.finish(writeOutcome{status: StatusAmbiguous, detail: "write timed out awaiting quorum"})
	if len(got) != 3 || got[2] {
		t.Fatalf("observer after failure = %v, want false", got)
	}
}

func TestCommitQueueCumulativeAckForceInterleavings(t *testing.T) {
	// Commit needs the local force AND the quorum ack, in either order
	// (the leader's force is its own vote, §8.1).
	lsn := wal.MakeLSN(1, 1)

	// Ack before force.
	q := newCommitQueue()
	q.add(pw(1, "r", "c"))
	q.markAckedThrough("f1", lsn)
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatal("committed without the local force")
	}
	q.markForced(lsn)
	if got := q.popCommittable(2, nil, nil); len(got) != 1 {
		t.Fatal("not committed after force joined the ack")
	}

	// Force before ack.
	q = newCommitQueue()
	q.add(pw(1, "r", "c"))
	q.markForced(lsn)
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatal("committed without any follower ack")
	}
	q.markAckedThrough("f1", lsn)
	if got := q.popCommittable(2, nil, nil); len(got) != 1 {
		t.Fatal("not committed after ack joined the force")
	}
}

func TestCommitQueueDistinctPeerQuorum(t *testing.T) {
	// A 5-way cohort (quorum 3) needs acks from two DISTINCT peers; one
	// peer acking twice (a duplicated or re-sent ack) must not be
	// double-counted.
	q := newCommitQueue()
	lsn := wal.MakeLSN(1, 1)
	q.add(pw(1, "r", "c"))
	q.markForced(lsn)
	q.markAckedThrough("f1", lsn)
	q.markAckedThrough("f1", lsn)
	if got := q.popCommittable(3, nil, nil); len(got) != 0 {
		t.Fatal("one peer double-counted toward a 3-quorum")
	}
	q.markAckedThrough("f2", lsn)
	if got := q.popCommittable(3, nil, nil); len(got) != 1 {
		t.Fatal("two distinct peers + leader should commit at quorum 3")
	}
}

func TestCommitQueueResetAcksOnStepDown(t *testing.T) {
	// A leadership transition discards every peer's watermark: a peer may
	// have logically truncated writes it acked under an earlier
	// leadership, so re-proposals must earn a fresh quorum.
	q := newCommitQueue()
	lsn := wal.MakeLSN(1, 1)
	q.add(pw(1, "r", "c"))
	q.markForced(lsn)
	q.markAckedThrough("f1", lsn)
	q.markAckedThrough("f2", lsn)
	q.resetAcks()
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatal("stale acks survived resetAcks")
	}
	q.markAckedThrough("f1", lsn)
	if got := q.popCommittable(2, nil, nil); len(got) != 1 {
		t.Fatal("fresh ack after reset did not commit")
	}
}

func TestCommitQueueDrainClearsWatermarks(t *testing.T) {
	// Draining on leader step-down must also drop the per-peer
	// watermarks, or a re-added write could commit on ghost acks.
	q := newCommitQueue()
	q.add(pw(1, "r", "c"))
	q.markForced(wal.MakeLSN(1, 1))
	q.markAckedThrough("f1", wal.MakeLSN(1, 9))
	q.drain()
	q.add(pw(2, "r", "c"))
	q.markForced(wal.MakeLSN(1, 2))
	if got := q.popCommittable(2, nil, nil); len(got) != 0 {
		t.Fatal("watermark survived drain")
	}
}

func TestCommitQueueStaleResponders(t *testing.T) {
	q := newCommitQueue()
	fresh := pw(1, "r", "c")
	fresh.client = &replies{}
	fresh.enqueuedAt = time.Now()
	q.add(fresh)
	old := pw(2, "r", "c")
	old.client = &replies{}
	old.enqueuedAt = time.Now().Add(-time.Minute)
	q.add(old)
	follower := pw(3, "r", "c") // no responder: never listed
	q.add(follower)
	stale := q.staleResponders(time.Second)
	if len(stale) != 1 || stale[0].lsn != wal.MakeLSN(1, 2) {
		t.Fatalf("staleResponders = %d entries", len(stale))
	}
}
