package core

import (
	"fmt"
	"testing"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/kv"
	"spinnaker/internal/sstable"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// publishLayout publishes l through the test cluster's coordination
// service.
func (tc *testCluster) publishLayout(l *cluster.Layout) {
	tc.t.Helper()
	sess := tc.coord.Connect()
	defer sess.Close()
	if err := PublishLayout(sess, l); err != nil {
		tc.t.Fatalf("publish layout: %v", err)
	}
}

// leaderNameOf returns the leader node id registered for a range, or "".
func (tc *testCluster) leaderNameOf(r uint32) string {
	sess := tc.coord.Connect()
	defer sess.Close()
	data, err := sess.Get(leaderPath(r))
	if err != nil {
		return ""
	}
	return string(data)
}

// TestNodeAdoptsPublishedLayout verifies the layout watch loop: every node
// follows the published layout version.
func TestNodeAdoptsPublishedLayout(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	tc.publishLayout(tc.layout) // v1

	next, err := tc.layout.WithNode("n-spare")
	if err != nil {
		t.Fatal(err)
	}
	tc.publishLayout(next) // v2

	deadline := time.Now().Add(5 * time.Second)
	for name, n := range tc.nodes {
		for n.LayoutVersion() < next.Version() {
			if time.Now().After(deadline) {
				t.Fatalf("node %s stuck at layout v%d, want v%d", name, n.LayoutVersion(), next.Version())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestShrinkRetiresReplicaAndReelects removes a member — the current
// leader, the hardest case — from a cohort via a published layout and
// checks that it retires the replica, the remaining members elect a new
// leader, and writes keep flowing.
func TestShrinkRetiresReplicaAndReelects(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	tc.publishLayout(tc.layout)
	c := tc.client()

	// All three ranges have 3-member cohorts; pick range 0 and shrink
	// its current leader out.
	leader := tc.leaderNameOf(0)
	if leader == "" {
		t.Fatal("range 0 has no leader")
	}
	var cohort []string
	for _, m := range tc.layout.Cohort(0) {
		if m != leader {
			cohort = append(cohort, m)
		}
	}
	next, err := tc.layout.WithCohort(0, cohort)
	if err != nil {
		t.Fatal(err)
	}
	tc.publishLayout(next)

	// The removed node must drop the replica...
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := tc.nodes[leader].ReplicaStats(0); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s still serves range 0 after shrink", leader)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ...and the survivors must elect an open leader from the new cohort.
	for {
		nl := tc.leaderNameOf(0)
		if nl != "" && nl != leader {
			if st, ok := tc.nodes[nl].ReplicaStats(0); ok && st.Role == RoleLeader && st.Open {
				if st.Quorum != 2 {
					t.Fatalf("new leader quorum %d, want 2 for a 2-member cohort", st.Quorum)
				}
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("range 0 never re-elected after shrinking %s out (leader znode %q)", leader, tc.leaderNameOf(0))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Writes to range 0 still commit (client re-resolves the leader).
	row := rowInRange(tc.layout, 0)
	if _, err := c.Put(row, "v", []byte("after-shrink")); err != nil {
		t.Fatalf("write after shrink: %v", err)
	}
	if v, _, err := c.Get(row, "v", true); err != nil || string(v) != "after-shrink" {
		t.Fatalf("read after shrink: %q %v", v, err)
	}
}

// TestWrongLayoutReply checks the server-side routing-miss contract: client
// operations for a range a node does not serve get StatusWrongLayout (so
// stale clients refresh), while replication messages are silently dropped.
func TestWrongLayoutReply(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()

	ep := tc.net.Join("raw-probe")
	ep.SetCallTimeout(time.Second)
	resp, err := ep.Call(transport.Message{
		To: "n0", Kind: MsgWrite, Cohort: 99,
		Payload: EncodeWriteOp(nil, WriteOp{Row: "x", Cols: []ColWrite{{Col: "c"}}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeWriteResult(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusWrongLayout {
		t.Fatalf("write to unknown range: status %d, want StatusWrongLayout", res.Status)
	}
	gresp, err := ep.Call(transport.Message{
		To: "n0", Kind: MsgGet, Cohort: 99,
		Payload: encodeGetReq(getReq{Row: "x", Col: "c", Consistent: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := decodeGetResp(gresp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if gres.Status != StatusWrongLayout {
		t.Fatalf("get on unknown range: status %d, want StatusWrongLayout", gres.Status)
	}
}

// rowInRange returns a row key owned by range id under layout l.
func rowInRange(l *cluster.Layout, id uint32) string {
	low, _ := l.Bounds(id)
	if low == "" {
		return "000001"
	}
	return low
}

// TestPopCommittableFiltersRemovedPeers pins the reconfiguration commit
// rule: acknowledgements from members that left the cohort stop counting
// toward quorum (a removed member may logically truncate what it acked).
func TestPopCommittableFiltersRemovedPeers(t *testing.T) {
	q := newCommitQueue()
	lsn := wal.MakeLSN(1, 1)
	q.add(&pendingWrite{lsn: lsn, op: WriteOp{Row: "r", Cols: []ColWrite{{Col: "c"}}}})
	q.markForced(lsn)
	q.markAckedThrough("old-member", lsn)

	// Quorum 2 with only a removed member's ack: must not commit.
	if got := q.popCommittable(2, []string{"current-member"}, nil); len(got) != 0 {
		t.Fatalf("committed %d writes on a removed member's ack", len(got))
	}
	// The same ack counts again if the member is (still) in the cohort.
	if got := q.popCommittable(2, []string{"old-member"}, nil); len(got) != 1 {
		t.Fatalf("ack from a current member did not commit (got %d)", len(got))
	}
}

// TestSplitPullServesFilteredState drives the origin-leader side of a split
// pull directly: before the shrink it refuses, after the shrink it serves
// exactly the moved rows.
func TestSplitPullServesFilteredState(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	tc.publishLayout(tc.layout)
	c := tc.client()

	low, high := tc.layout.Bounds(0)
	if high == "" {
		t.Fatal("range 0 has no upper bound in this layout")
	}
	// Two rows in range 0, one on each side of the future split point.
	loRow := rowInRange(tc.layout, 0)
	hiRow := "155555" // inside [0th range] for the 6-wide, 3-node uniform layout
	if tc.layout.RangeOf(hiRow) != 0 {
		t.Fatalf("test key %q not in range 0 [%q,%q)", hiRow, low, high)
	}
	if _, err := c.Put(loRow, "v", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(hiRow, "v", []byte("move")); err != nil {
		t.Fatal(err)
	}

	leader := tc.leaderNameOf(0)
	lr := tc.nodes[leader].getReplica(0)
	if lr == nil {
		t.Fatal("leader lost range 0")
	}
	// Before the shrink is adopted, the pull must be refused.
	if _, ok := lr.serveSplitPull("100000", high); ok {
		t.Fatal("split pull served before the origin adopted the shrink")
	}

	next, newID, err := tc.layout.WithSplit(0, "100000")
	if err != nil {
		t.Fatal(err)
	}
	tc.publishLayout(next)

	deadline := time.Now().Add(10 * time.Second)
	for {
		cr, ok := lr.serveSplitPull("100000", high)
		if ok {
			var moved, kept bool
			for _, e := range cr.Entries {
				switch e.Key.Row {
				case hiRow:
					moved = true
				case loRow:
					kept = true
				}
			}
			if !moved || kept {
				t.Fatalf("split pull entries wrong: moved=%t keptLeaked=%t (%d entries)", moved, kept, len(cr.Entries))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("origin leader never became ready to serve the split pull")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The split range must come up with the moved row intact.
	for {
		v, _, err := c.Get(hiRow, "v", true)
		if err == nil && string(v) == "move" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("moved row unreadable after split: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = newID
}

// TestRejoinDoesNotResurrectCompactedDeletes pins the RecResetCohort /
// engine-wipe machinery: a node leaves a cohort, a key is deleted
// cluster-wide and its tombstone compacted away while the node is out, and
// the node rejoins. Without the durable reset, the rejoined member's old
// SSTables still hold the deleted key's value and catch-up can never
// mention it (no tombstone survives anywhere), so the key resurrects.
func TestRejoinDoesNotResurrectCompactedDeletes(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		// Tiny thresholds so the background flush loop flushes and
		// fully compacts (dropping tombstones) within a few intervals.
		c.FlushBytes = 1
		c.MaxTables = 1
		c.FlushInterval = 5 * time.Millisecond
	})
	tc.waitAllLeaders()
	tc.publishLayout(tc.layout)
	c := tc.client()

	row := rowInRange(tc.layout, 0)
	if _, err := c.Put(row, "v", []byte("alive")); err != nil {
		t.Fatal(err)
	}

	// Move a non-leader member out of range 0's cohort.
	leader := tc.leaderNameOf(0)
	var victim string
	var cohort []string
	for _, m := range tc.layout.Cohort(0) {
		if victim == "" && m != leader {
			victim = m
			continue
		}
		cohort = append(cohort, m)
	}

	// Before the victim leaves, make sure the value is durably in its
	// SSTables (commit propagation is asynchronous, and an un-flushed
	// memtable dies with the retired replica): that flushed table is the
	// stale state the rejoin must not resurrect from.
	deadline := time.Now().Add(10 * time.Second)
	vr := tc.nodes[victim].getReplica(0)
	if vr == nil {
		t.Fatalf("victim %s does not serve range 0", victim)
	}
	for {
		if _, ok := vr.engine.Get(kv.Key{Row: row, Col: "v"}); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s never applied the preload write", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := vr.engine.Flush(); err != nil {
		t.Fatal(err)
	}
	next, err := tc.layout.WithCohort(0, cohort)
	if err != nil {
		t.Fatal(err)
	}
	tc.publishLayout(next)
	for {
		if _, ok := tc.nodes[victim].ReplicaStats(0); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never left range 0", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Delete the key while the victim is out, then force flushes and a
	// full compaction on every remaining member so the tombstone is
	// provably purged cluster-wide before the victim returns.
	if err := c.Delete(row, "v"); err != nil {
		t.Fatal(err)
	}
	for filler := 0; ; filler++ {
		// Keep feeding fresh writes: CompactAll is a no-op on a single
		// table, so a lone tombstone-bearing table needs a sibling to
		// merge with before the tombstone can drop.
		if _, err := c.Put(rowInRange(tc.layout, 0)+fmt.Sprintf("-f%d", filler), "v", []byte("filler")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond) // let followers apply the commit
		purged := true
		for _, m := range cohort {
			mr := tc.nodes[m].getReplica(0)
			if mr == nil {
				t.Fatalf("member %s lost range 0", m)
			}
			if err := mr.engine.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := mr.engine.CompactAll(sstable.DropAllTombstones); err != nil {
				t.Fatal(err)
			}
			for _, e := range mr.engine.EntriesSince(0) {
				if e.Key.Row == row {
					purged = false // value or tombstone still visible
				}
			}
		}
		if purged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tombstone never purged cluster-wide")
		}
	}

	// Rejoin the victim and wait until it is admitted (caught up).
	next2, err := next.WithCohort(0, append(cohort, victim))
	if err != nil {
		t.Fatal(err)
	}
	tc.publishLayout(next2)
	sess := tc.coord.Connect()
	defer sess.Close()
	for {
		members, _ := CurrentMembers(sess, 0)
		found := false
		for _, m := range members {
			if m == victim {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never caught up after rejoining", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A timeline read served by the rejoined member must never show the
	// deleted value.
	ep := tc.net.Join("resurrect-probe")
	ep.SetCallTimeout(time.Second)
	req := encodeGetReq(getReq{Row: row, Col: "v", Consistent: false})
	for {
		resp, err := ep.Call(transport.Message{To: victim, Kind: MsgGet, Cohort: 0, Payload: req})
		if err == nil {
			res, err := decodeGetResp(resp.Payload)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Status {
			case StatusOK:
				t.Fatalf("deleted key resurrected on rejoined member: %q", res.Value)
			case StatusNotFound:
				return // correct: the delete held
			}
			// StatusUnavailable: still recovering; retry.
		}
		if time.Now().After(deadline) {
			t.Fatal("rejoined member never served the probe read")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRejoinAfterCrashDoesNotResurrect covers the crash window of the
// rejoin reset: the node is out of the cohort and crashed when the
// re-adding layout is published, so the live adoption path never runs and
// the restart must discover the departure from the durable marker
// (departedKey) and discard the stale engine/log state in NewNode.
func TestRejoinAfterCrashDoesNotResurrect(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.FlushBytes = 1
		c.MaxTables = 1
		c.FlushInterval = 5 * time.Millisecond
	})
	tc.waitAllLeaders()
	tc.publishLayout(tc.layout)
	c := tc.client()

	row := rowInRange(tc.layout, 0)
	if _, err := c.Put(row, "v", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	leader := tc.leaderNameOf(0)
	var victim string
	var cohort []string
	for _, m := range tc.layout.Cohort(0) {
		if victim == "" && m != leader {
			victim = m
			continue
		}
		cohort = append(cohort, m)
	}
	deadline := time.Now().Add(10 * time.Second)
	vr := tc.nodes[victim].getReplica(0)
	for {
		if _, ok := vr.engine.Get(kv.Key{Row: row, Col: "v"}); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s never applied the preload write", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := vr.engine.Flush(); err != nil {
		t.Fatal(err)
	}

	// Shrink the victim out, wait for retirement (which persists the
	// departed marker), then crash it.
	next, err := tc.layout.WithCohort(0, cohort)
	if err != nil {
		t.Fatal(err)
	}
	tc.publishLayout(next)
	for {
		if _, ok := tc.nodes[victim].ReplicaStats(0); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never left range 0", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tc.crashNode(victim)

	// Delete the key and purge the tombstone cluster-wide while the
	// victim is down and out.
	if err := c.Delete(row, "v"); err != nil {
		t.Fatal(err)
	}
	for filler := 0; ; filler++ {
		if _, err := c.Put(rowInRange(tc.layout, 0)+fmt.Sprintf("-g%d", filler), "v", []byte("filler")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		purged := true
		for _, m := range cohort {
			mr := tc.nodes[m].getReplica(0)
			if err := mr.engine.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := mr.engine.CompactAll(sstable.DropAllTombstones); err != nil {
				t.Fatal(err)
			}
			for _, e := range mr.engine.EntriesSince(0) {
				if e.Key.Row == row {
					purged = false
				}
			}
		}
		if purged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tombstone never purged cluster-wide")
		}
	}

	// Re-add the victim while it is down, then restart it: the rejoin
	// goes through NewNode (bootstrap layout includes range 0), where
	// only the durable departed marker can trigger the reset.
	next2, err := next.WithCohort(0, append(cohort, victim))
	if err != nil {
		t.Fatal(err)
	}
	tc.publishLayout(next2)
	tc.restartNode(victim)

	sess := tc.coord.Connect()
	defer sess.Close()
	for {
		members, _ := CurrentMembers(sess, 0)
		found := false
		for _, m := range members {
			if m == victim {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never caught up after crash-rejoin", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ep := tc.net.Join("crash-resurrect-probe")
	ep.SetCallTimeout(time.Second)
	req := encodeGetReq(getReq{Row: row, Col: "v", Consistent: false})
	for {
		resp, err := ep.Call(transport.Message{To: victim, Kind: MsgGet, Cohort: 0, Payload: req})
		if err == nil {
			res, err := decodeGetResp(resp.Payload)
			if err != nil {
				t.Fatal(err)
			}
			switch res.Status {
			case StatusOK:
				t.Fatalf("deleted key resurrected on crash-rejoined member: %q", res.Value)
			case StatusNotFound:
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("crash-rejoined member never served the probe read")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
