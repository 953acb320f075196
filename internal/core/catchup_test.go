package core

import (
	"sync"
	"testing"
	"time"

	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// TestWritesProceedDuringCatchupScan pins the off-lock catch-up scan: while
// the leader's engine scan is parked (via the test hook), a client write
// must still commit, and the eventual response must cover it through the
// bounded log-tail re-read.
func TestWritesProceedDuringCatchupScan(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	if _, err := c.Put(row0(1), "c", []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Both followers must be past their own catch-up before the hook is
	// armed: the leader serves a catch-up request inline on the sender's
	// link, so the hook would hold that follower's acks behind it.
	leader := tc.nodes[tc.waitFollowing(0)]

	entered := make(chan struct{})
	release := make(chan struct{})
	var enteredOnce sync.Once
	hook := func(from string) {
		if from != "probe-scan" {
			return
		}
		enteredOnce.Do(func() { close(entered) })
		<-release
	}
	testCatchupScanHook.Store(&hook)
	t.Cleanup(func() { testCatchupScanHook.Store(nil) })
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })

	respCh := make(chan catchupResp, 1)
	errCh := make(chan error, 1)
	go func() {
		ep := tc.net.Join("probe-scan")
		resp, err := ep.Call(transport.Message{
			To: leader.ID(), Kind: MsgCatchupReq, Cohort: 0,
			Payload: encodeCatchupReq(catchupReq{Cmt: 0, NoSnap: true}),
		})
		if err != nil {
			errCh <- err
			return
		}
		cr, err := decodeCatchupResp(resp.Payload)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- cr
	}()

	select {
	case <-entered:
	case err := <-errCh:
		t.Fatalf("catch-up call failed before reaching the scan: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("catch-up request never reached the engine scan")
	}

	// The scan is parked. A write must commit anyway — before the off-lock
	// rework, onCatchupReq held r.mu across the scan and this Put would
	// block until the hook released.
	writeDone := make(chan error, 1)
	go func() {
		_, err := c.Put(row0(2), "c", []byte("during-scan"))
		writeDone <- err
	}()
	select {
	case err := <-writeDone:
		if err != nil {
			t.Fatalf("write during catch-up scan: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write blocked behind the catch-up scan")
	}
	releaseOnce.Do(func() { close(release) })

	select {
	case cr := <-respCh:
		if cr.Status != StatusOK {
			t.Fatalf("catch-up status %d", cr.Status)
		}
		// The write committed mid-scan; the tail re-read must have folded
		// it into the response so the advertised Cmt is honest.
		found := false
		for _, e := range cr.Entries {
			if e.Key.Row == row0(2) {
				found = true
			}
		}
		if !found {
			t.Fatalf("response (Cmt %s, %d entries) omitted the write committed during the scan",
				cr.Cmt, len(cr.Entries))
		}
	case err := <-errCh:
		t.Fatalf("catch-up call: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("catch-up response never arrived after release")
	}
}

// TestSnapshotCatchupShipsTables drives the tentpole path end to end: a
// follower crashes, the survivors flush and truncate the shared log past
// its f.cmt, and the rejoin must go through the SSTable-shipping path (the
// entry path can no longer prove completeness from the log).
func TestSnapshotCatchupShipsTables(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.FlushBytes = 8 << 10
		cfg.SegmentBytes = 16 << 10
		cfg.FlushInterval = 5 * time.Millisecond
	})
	tc.waitAllLeaders()
	c := tc.client()

	leader := tc.leaderOf(0).ID()
	var follower string
	for _, name := range tc.layout.Cohort(0) {
		if name != leader {
			follower = name
			break
		}
	}

	value := make([]byte, 512)
	for i := range value {
		value[i] = byte(i)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Put(row0(i), "c", value); err != nil {
			t.Fatal(err)
		}
	}
	fst, ok := tc.nodes[follower].ReplicaStats(0)
	if !ok {
		t.Fatal("follower serves no replica of range 0")
	}
	tc.crashNode(follower)

	for i := 30; i < 150; i++ {
		if _, err := c.Put(row0(i), "c", value); err != nil {
			t.Fatalf("write %d with follower down: %v", i, err)
		}
	}
	leaderNode := tc.leaderOf(0)
	deadline := time.Now().Add(5 * time.Second)
	for leaderNode.LogTruncated(0) <= fst.LastCommitted {
		if time.Now().After(deadline) {
			t.Skip("log never truncated past the crashed follower's cmt")
		}
		time.Sleep(10 * time.Millisecond)
	}

	n := tc.restartNode(follower)
	deadline = time.Now().Add(15 * time.Second)
	for {
		st, ok := n.ReplicaStats(0)
		if ok && st.Role == RoleFollower && st.LastCommitted >= wal.MakeLSN(1, 150) {
			break
		}
		if time.Now().After(deadline) {
			st, _ := n.ReplicaStats(0)
			t.Fatalf("follower never caught up past the truncated log: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	st, _ := n.ReplicaStats(0)
	if st.SnapshotCatchups == 0 {
		t.Error("rejoin across a truncated log did not use the SSTable path")
	}
	if lst, ok := leaderNode.ReplicaStats(0); !ok || lst.SnapshotsServed == 0 {
		t.Error("leader served no snapshot manifest")
	}

	ep := tc.net.Join("probe-snap")
	for i := 0; i < 150; i += 7 {
		resp, err := ep.Call(transportMsgGet(follower, 0, row0(i), "c"))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := decodeGetResp(resp.Payload)
		if res.Status != StatusOK || len(res.Value) != len(value) {
			t.Fatalf("key %d at rejoined follower: status %d len %d", i, res.Status, len(res.Value))
		}
	}
	// The shipped tables keep each cell's version equal to its LSN.
	checkCellsVersionIsLSN(t, tc, 0)
}

// TestNoSnapCatchupServedFromEngine pins the fallback maxSnapshotRounds
// forces: a NoSnap request from below the leader's truncation point is
// served as entries, not a manifest, and the engine makes them complete
// through the advertised commit point even though the log no longer can.
func TestNoSnapCatchupServedFromEngine(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.FlushBytes = 8 << 10
		cfg.SegmentBytes = 16 << 10
		cfg.FlushInterval = 5 * time.Millisecond
	})
	tc.waitAllLeaders()
	c := tc.client()

	value := make([]byte, 512)
	for i := 0; i < 150; i++ {
		if _, err := c.Put(row0(i), "c", value); err != nil {
			t.Fatal(err)
		}
	}
	leaderNode := tc.leaderOf(0)
	deadline := time.Now().Add(5 * time.Second)
	for leaderNode.LogTruncated(0) == 0 {
		if time.Now().After(deadline) {
			t.Skip("log never truncated")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ep := tc.net.Join("probe-nosnap")
	call := func(req catchupReq) transport.Message {
		t.Helper()
		resp, err := ep.Call(transport.Message{
			To: leaderNode.ID(), Kind: MsgCatchupReq, Cohort: 0, Payload: encodeCatchupReq(req),
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Without the flag the same request is a snapshot round: the log
	// cannot prove completeness from Cmt 0.
	if resp := call(catchupReq{}); resp.Kind != MsgSnapManifest {
		t.Fatalf("request below the truncation point answered with kind %d, want a manifest", resp.Kind)
	}

	resp := call(catchupReq{NoSnap: true})
	if resp.Kind == MsgSnapManifest {
		t.Fatal("NoSnap request answered with a manifest")
	}
	cr, err := decodeCatchupResp(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Status != StatusOK {
		t.Fatalf("NoSnap catch-up status %d", cr.Status)
	}
	if cr.Cmt < wal.MakeLSN(1, 150) {
		t.Errorf("NoSnap catch-up advertises Cmt %s, want at least %s", cr.Cmt, wal.MakeLSN(1, 150))
	}
	rows := make(map[string]bool, len(cr.Entries))
	for _, e := range cr.Entries {
		rows[e.Key.Row] = true
	}
	for i := 0; i < 150; i++ {
		if !rows[row0(i)] {
			t.Fatalf("NoSnap catch-up (%d entries) is missing row %s", len(cr.Entries), row0(i))
		}
	}
}
