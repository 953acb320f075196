package core

import (
	"fmt"
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

// callTap shows every Call the wrapped endpoint makes to call before it is
// sent; the function call returns runs when the Call returns.
type callTap struct {
	transport.Endpoint
	call func(m transport.Message) func()
}

func (e callTap) Call(m transport.Message) (transport.Message, error) {
	defer e.call(m)()
	return e.Endpoint.Call(m)
}

// TestCatchupRangesIndependent: node c follows range x, led by a, and range
// y, led by b, and misses writes on both. With c→a cut one way, x's
// catch-up request is lost and its call waits out the call timeout; y must
// reach its leader's commit point while that call is still in flight. One
// range's lost call holds up no other range on the node.
func TestCatchupRangesIndependent(t *testing.T) {
	var (
		mu       sync.Mutex
		watchX   = ^uint32(0)
		caller   string
		inFlight = make(chan struct{})
		returned = make(chan struct{})
		once     sync.Once
	)
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		return callTap{ep, func(m transport.Message) func() {
			mu.Lock()
			watched := name == caller && m.Kind == MsgCatchupReq && m.Cohort == watchX
			mu.Unlock()
			first := false
			if watched {
				once.Do(func() { first = true; close(inFlight) })
			}
			return func() {
				if first {
					close(returned)
				}
			}
		}}
	}})
	tc.waitAllLeaders()
	x, y := uint32(0), uint32(1)
	a := tc.waitFollowing(x)
	for tc.waitFollowing(y) == a {
		tc.nodes[a].StepDown(y) // elections can hand a node every range
		time.Sleep(time.Millisecond)
	}
	b := tc.waitFollowing(y)
	var c string
	for _, name := range tc.layout.Cohort(x) {
		if name != a && name != b {
			c = name
		}
	}

	cl := tc.client()
	tc.net.Partition(c, a)
	tc.net.Partition(c, b)
	for i := 0; i < 5; i++ {
		for _, r := range []uint32{x, y} {
			if _, err := cl.Put(fmt.Sprint(rowInRange(tc.layout, r), i), "c", []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	mu.Lock()
	watchX, caller = x, c
	mu.Unlock()
	// a's commit messages reach c again, c's requests to a do not.
	tc.net.PartitionOneWay(c, a)
	tc.net.Heal(c, a)
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("x never asked for catch-up")
	}
	tc.net.Heal(c, b)

	target, _ := tc.nodes[b].ReplicaStats(y)
	for {
		if st, _ := tc.nodes[c].ReplicaStats(y); st.LastCommitted >= target.LastCommitted {
			break
		}
		select {
		case <-returned:
			st, _ := tc.nodes[c].ReplicaStats(y)
			t.Fatalf("x's lost catch-up call returned while y was still behind: %s < %s",
				st.LastCommitted, target.LastCommitted)
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-returned:
		t.Fatal("x's catch-up call returned, yet its request was cut")
	default:
	}
}

// TestCatchupOneRunPerReplica fires the gap, commit-beyond-log,
// leader-change and layout-add triggers together on one follower replica
// while its first catch-up run is held in its call: no second run starts
// beside it, and the triggers that landed during the held run get a run
// after it. A run's calls are sequential, so the catch-up calls in flight
// count the runs.
func TestCatchupOneRunPerReplica(t *testing.T) {
	const rid = 0
	var (
		mu                      sync.Mutex
		caller                  string
		active, maxActive, runs int
	)
	counts := func() (int, int, int) {
		mu.Lock()
		defer mu.Unlock()
		return active, maxActive, runs
	}
	release := make(chan struct{})
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		return callTap{ep, func(m transport.Message) func() {
			mu.Lock()
			defer mu.Unlock()
			if name != caller || m.Kind != MsgCatchupReq || m.Cohort != rid {
				return func() {}
			}
			active++
			runs++
			maxActive = max(maxActive, active)
			if runs == 1 {
				mu.Unlock()
				<-release
				mu.Lock()
			}
			return func() {
				mu.Lock()
				active--
				mu.Unlock()
			}
		}}
	}})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	tc.waitAllLeaders()
	leader := tc.waitFollowing(rid)
	if _, err := tc.client().Put(row0(1), "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var follower *replica
	for _, name := range tc.layout.Cohort(rid) {
		if name != leader {
			follower = tc.nodes[name].getReplica(rid)
			mu.Lock()
			caller = name
			mu.Unlock()
			break
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	follower.wantCatchup()
	waitFor("the first run", func() bool { _, _, n := counts(); return n == 1 })

	follower.mu.Lock()
	epoch, last := follower.epoch, follower.lastLSN
	follower.mu.Unlock()
	gapped := transport.Message{From: leader, Kind: MsgProposeBatch, Cohort: rid,
		Payload: encodeProposeBatch(nil, []proposeRec{{
			LSN: wal.MakeLSN(epoch, last.Seq()+5),
			Raw: EncodeWriteOp(nil, WriteOp{Row: row0(2), Cols: []ColWrite{{Col: "c", Value: []byte("v")}}}),
		}})}
	triggers := []func(){
		func() { follower.onProposeBatch(gapped) },
		func() { follower.applyCommitted(wal.MakeLSN(epoch, last.Seq()+100), false) },
		func() {
			follower.mu.Lock()
			follower.leaderID = "" // the leader it followed is gone
			follower.mu.Unlock()
			follower.becomeFollower(leader)
		},
		follower.wantCatchup, // what adoptLayout does for a replica it adds
	}
	var wg sync.WaitGroup
	for _, fire := range triggers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire()
		}()
	}
	wg.Wait()
	// A second run started by a trigger would take the mark and call
	// at once; give one the time to show before the held run ends.
	time.Sleep(50 * time.Millisecond)
	releaseOnce.Do(func() { close(release) })

	waitFor("a run after the triggers", func() bool { _, _, n := counts(); return n >= 2 })
	waitFor("catch-up to go idle", func() bool { return follower.catchupRun.Load() == nil })
	if _, most, n := counts(); most != 1 {
		t.Fatalf("%d catch-up runs at once on one replica (of %d runs), want 1", most, n)
	}
}

// openLeaderOtherThan returns the node that holds range rid's leader znode
// and leads it open, if that is not old; "" otherwise.
func (tc *testCluster) openLeaderOtherThan(rid uint32, old string) string {
	sess := tc.coord.Connect()
	defer sess.Close()
	data, err := sess.Get(leaderPath(rid))
	if err != nil || string(data) == old {
		return ""
	}
	if n, ok := tc.nodes[string(data)]; ok {
		if st, ok := n.ReplicaStats(rid); ok && st.Role == RoleLeader && st.Open {
			return string(data)
		}
	}
	return ""
}

// TestElectionNotHeldByFollowerCatchup: follower c's catch-up request to
// leader a is lost, so its call waits out the call timeout. a then becomes
// unreachable without closing a connection (a partition, a hung host) and
// its session expires. The cohort must elect a new leader while c's call is
// still in flight: in a cohort of three, b cannot win without c standing.
func TestElectionNotHeldByFollowerCatchup(t *testing.T) {
	const rid = 0
	var (
		mu       sync.Mutex
		caller   string
		inFlight = make(chan struct{})
		returned = make(chan struct{})
		once     sync.Once
	)
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		return callTap{ep, func(m transport.Message) func() {
			mu.Lock()
			watched := name == caller && m.Kind == MsgCatchupReq && m.Cohort == rid
			mu.Unlock()
			first := false
			if watched {
				once.Do(func() { first = true; close(inFlight) })
			}
			return func() {
				if first {
					close(returned)
				}
			}
		}}
	}})
	tc.waitAllLeaders()
	a := tc.waitFollowing(rid)
	var c string
	for _, name := range tc.layout.Cohort(rid) {
		if name != a {
			c = name
		}
	}

	cl := tc.client()
	tc.net.Partition(c, a)
	for i := 0; i < 5; i++ {
		if _, err := cl.Put(row0(i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	caller = c
	mu.Unlock()
	// a's commit messages reach c again, c's requests to a do not.
	tc.net.PartitionOneWay(c, a)
	tc.net.Heal(c, a)
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("c never asked for catch-up")
	}

	tc.net.Isolate(a)
	tc.nodes[a].coordSess.Expire()
	expired := time.Now()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if l := tc.openLeaderOtherThan(rid, a); l != "" {
			t.Logf("%s leads %v after %s's session expired", l, time.Since(expired), a)
			break
		}
		select {
		case <-returned:
			t.Fatalf("c's lost catch-up call returned %v after %s's session expired, and no new leader yet",
				time.Since(expired), a)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("no new leader")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-returned:
		t.Fatal("c's catch-up call returned, yet its request was cut")
	default:
	}
}

// TestRecoveringCatchupEndsWithLeader: c restarts under leader a and its
// catch-up request is lost. a then becomes unreachable without closing a
// connection and its session expires. A recovering replica stands only once
// its catch-up run has ended, so the run must end when the leader znode
// goes, not retry a until its attempts run out: c asks a nothing more after
// the lost call, and b and c elect a new leader.
func TestRecoveringCatchupEndsWithLeader(t *testing.T) {
	const rid = 0
	var (
		mu       sync.Mutex
		caller   string
		target   string
		calls    int
		inFlight = make(chan struct{})
		release  = make(chan struct{})
	)
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		// A lost call costs its timeout; keep that short.
		ep.(*transport.LocalEndpoint).SetCallTimeout(200 * time.Millisecond)
		return callTap{ep, func(m transport.Message) func() {
			mu.Lock()
			watched := name == caller && m.To == target && m.Kind == MsgCatchupReq && m.Cohort == rid
			if watched {
				calls++
			}
			first := watched && calls == 1
			mu.Unlock()
			if first {
				// Hold the call until a's session has expired, so
				// that it times out with no leader named.
				close(inFlight)
				<-release
			}
			return func() {}
		}}
	}})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	tc.waitAllLeaders()
	a := tc.waitFollowing(rid)
	var c string
	for _, name := range tc.layout.Cohort(rid) {
		if name != a {
			c = name
		}
	}

	tc.crashNode(c)
	cl := tc.client()
	for i := 0; i < 5; i++ {
		if _, err := cl.Put(row0(i), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	caller, target = c, a
	mu.Unlock()
	tc.net.PartitionOneWay(c, a)
	tc.restartNode(c)
	select {
	case <-inFlight:
	case <-time.After(10 * time.Second):
		t.Fatal("c never asked a for catch-up")
	}

	tc.net.Isolate(a)
	tc.nodes[a].coordSess.Expire()
	expired := time.Now()
	releaseOnce.Do(func() { close(release) })
	for deadline := time.Now().Add(10 * time.Second); ; {
		if l := tc.openLeaderOtherThan(rid, a); l != "" {
			t.Logf("%s leads %v after %s's session expired", l, time.Since(expired), a)
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("no new leader; c asked a for catch-up %d times", calls)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("c asked a for catch-up %d times, want 1: its run outlived a's leadership", calls)
	}
}
