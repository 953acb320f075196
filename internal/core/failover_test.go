package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spinnaker/internal/coord"
	"spinnaker/internal/kv"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// row0 keys land in range 0 (cohort n0-n1-n2 in a 3-node cluster).
func row0(i int) string { return fmt.Sprintf("%06d", i) }

func TestLeaderFailover(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	for i := 0; i < 20; i++ {
		if _, err := c.Put(row0(i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}

	leader := tc.leaderOf(0)
	oldLeader := leader.ID()
	tc.crashNode(oldLeader)

	// A new leader must take over and the cohort must become available
	// for reads and writes again (§8.1: available as long as a majority
	// of the cohort is up).
	newLeader := tc.leaderOf(0)
	if newLeader.ID() == oldLeader {
		t.Fatalf("old leader still registered")
	}

	// No committed write may be lost (§7: the new leader is chosen so
	// its log contains every committed write).
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 20; i++ {
		for {
			got, _, err := c.Get(row0(i), "c", true)
			if err == nil {
				if string(got) != fmt.Sprintf("v%d", i) {
					t.Fatalf("key %d = %q after failover", i, got)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d unreadable after failover: %v", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Writes proceed with the new leader.
	for i := 20; i < 30; i++ {
		if _, err := c.Put(row0(i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("post-failover Put %d: %v", i, err)
		}
	}
}

func TestEpochIncrementsOnTakeover(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	v1, err := c.Put(row0(1), "c", []byte("epoch1"))
	if err != nil {
		t.Fatal(err)
	}
	if wal.LSN(v1).Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", wal.LSN(v1).Epoch())
	}

	tc.crashNode(tc.leaderOf(0).ID())
	tc.leaderOf(0) // wait for the new leader

	var v2 uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		v2, err = c.Put(row0(2), "c", []byte("epoch2"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write after failover: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// App. B: the epoch number is incremented on takeover, and new LSNs
	// dominate all previous ones.
	if wal.LSN(v2).Epoch() != 2 {
		t.Errorf("post-takeover epoch = %d, want 2", wal.LSN(v2).Epoch())
	}
	if v2 <= v1 {
		t.Errorf("post-takeover version %d not above %d", v2, v1)
	}
}

func TestFollowerCrashRecovery(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
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

	for i := 0; i < 10; i++ {
		if _, err := c.Put(row0(i), "c", []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	tc.crashNode(follower)

	// Writes continue with a majority (§8.1).
	for i := 10; i < 25; i++ {
		if _, err := c.Put(row0(i), "c", []byte("during")); err != nil {
			t.Fatalf("Put with follower down: %v", err)
		}
	}

	n := tc.restartNode(follower)
	// Follower recovery: local recovery, then catch-up (§6.1). Wait for
	// it to become a current follower.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := n.ReplicaStats(0)
		if ok && st.Role == RoleFollower && st.LastCommitted >= wal.MakeLSN(1, 25) {
			break
		}
		if time.Now().After(deadline) {
			st, _ := n.ReplicaStats(0)
			t.Fatalf("follower never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The recovered follower serves every committed write on timeline
	// reads directly.
	ep := tc.net.Join("probe-recovered")
	for i := 0; i < 25; i++ {
		resp, err := ep.Call(transportMsgGet(follower, 0, row0(i), "c"))
		if err != nil {
			t.Fatalf("probe get: %v", err)
		}
		res, err := decodeGetResp(resp.Payload)
		if err != nil || res.Status != StatusOK {
			t.Fatalf("key %d at recovered follower: status %d err %v", i, res.Status, err)
		}
	}
}

func TestFigure1ScenarioResolved(t *testing.T) {
	// The master-slave failure sequence of Figure 1, replayed against
	// Spinnaker: follower goes down; leader keeps committing (majority);
	// leader then fails permanently; the stale follower comes back.
	// Master-slave would either lose writes or be unavailable; Spinnaker
	// elects the *other* follower (max n.lst) and loses nothing.
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	leader := tc.leaderOf(0).ID()
	cohort := tc.layout.Cohort(0)
	staleFollower := ""
	for _, name := range cohort {
		if name != leader {
			staleFollower = name
			break
		}
	}

	// LSN=10 state: writes while everyone is up.
	for i := 0; i < 10; i++ {
		if _, err := c.Put(row0(i), "c", []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	// Slave goes down.
	tc.crashNode(staleFollower)
	// Master continues to LSN=20.
	for i := 10; i < 20; i++ {
		if _, err := c.Put(row0(i), "c", []byte("new")); err != nil {
			t.Fatalf("write with one follower down: %v", err)
		}
	}
	// Master suffers a permanent failure.
	tc.crashNode(leader)
	tc.stores[leader].Fail()
	// The stale slave comes back up. In master-slave this state loses
	// writes 11..20 or blocks; here the remaining current follower wins
	// the election (it has the max n.lst) and every committed write
	// survives.
	tc.restartNode(staleFollower)

	newLeader := tc.leaderOf(0)
	if newLeader.ID() == leader {
		t.Fatal("permanently failed node claims leadership")
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 20; i++ {
		want := "old"
		if i >= 10 {
			want = "new"
		}
		for {
			got, _, err := c.Get(row0(i), "c", true)
			if err == nil {
				if string(got) != want {
					t.Fatalf("key %d = %q, want %q", i, got, want)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d unreadable: %v", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func TestDiskFailureRecovery(t *testing.T) {
	// §6.1: "If the follower has lost all its data because of a disk
	// failure, then it moves directly to the catch up phase."
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	for i := 0; i < 15; i++ {
		if _, err := c.Put(row0(i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	leader := tc.leaderOf(0).ID()
	var follower string
	for _, name := range tc.layout.Cohort(0) {
		if name != leader {
			follower = name
			break
		}
	}
	tc.crashNode(follower)
	tc.stores[follower].Fail() // total data loss

	n := tc.restartNode(follower)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok := n.ReplicaStats(0)
		if ok && st.Role == RoleFollower && st.LastCommitted >= wal.MakeLSN(1, 15) {
			break
		}
		if time.Now().After(deadline) {
			st, _ := n.ReplicaStats(0)
			t.Fatalf("disk-failed follower never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ep := tc.net.Join("probe-disk")
	for i := 0; i < 15; i++ {
		resp, err := ep.Call(transportMsgGet(follower, 0, row0(i), "c"))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := decodeGetResp(resp.Payload)
		if res.Status != StatusOK || string(res.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d after disk recovery: %q status %d", i, res.Value, res.Status)
		}
	}
}

func TestAppendixBScenario(t *testing.T) {
	// The detailed recovery example of Appendix B: the whole cohort goes
	// down; one node holds a never-committed write (LSN 1.22) that the
	// others never saw. A majority recovers without it, moves to epoch 2,
	// and when the straggler returns, its orphan write is logically
	// truncated while everything committed survives.
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	const committed = 21
	for i := 1; i <= committed; i++ {
		if _, err := c.Put(row0(i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// All nodes go down (state S1).
	names := tc.layout.Cohort(0)
	for _, name := range names {
		tc.crashNode(name)
	}

	// Plant the uncommitted write 1.22 in node C's log only: a propose
	// that was forced at one follower but never acked anywhere else.
	straggler := names[2]
	log, err := wal.Open(wal.Config{Store: tc.stores[straggler].Segments, GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	orphanLSN := wal.MakeLSN(1, committed+1)
	orphanOp := WriteOp{Row: row0(999), Cols: []ColWrite{{Col: "c", Value: []byte("orphan")}}}
	if err := log.AppendForce(wal.Record{
		Cohort: 0, Type: wal.RecWrite, LSN: orphanLSN, Payload: EncodeWriteOp(nil, orphanOp),
	}); err != nil {
		t.Fatal(err)
	}

	// S2: two nodes come back, elect a leader, and re-propose the
	// unresolved committed writes; 1.22 is not seen.
	tc.restartNode(names[0])
	tc.restartNode(names[1])
	tc.leaderOf(0)

	// S3: new writes land in epoch 2.
	deadline := time.Now().Add(5 * time.Second)
	var v2 uint64
	for {
		v2, err = c.Put(row0(500), "c", []byte("epoch2"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart write: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// At least one takeover separates the two writes (sequentially
	// crashing the cohort can let the survivors start an intermediate
	// election, so the epoch may advance more than once).
	if wal.LSN(v2).Epoch() < 2 {
		t.Errorf("epoch after full-cohort restart = %d, want ≥ 2", wal.LSN(v2).Epoch())
	}

	// S4: the straggler comes back; 1.22 must be logically truncated.
	n := tc.restartNode(straggler)
	for {
		st, ok := n.ReplicaStats(0)
		if ok && st.Role == RoleFollower && st.LastCommitted >= wal.LSN(v2) {
			break
		}
		if time.Now().After(deadline.Add(5 * time.Second)) {
			st, _ := n.ReplicaStats(0)
			t.Fatalf("straggler never caught up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The orphan write never becomes visible anywhere.
	if _, _, err := c.Get(row0(999), "c", true); !errors.Is(err, ErrNotFound) {
		t.Errorf("orphan write visible after recovery: %v", err)
	}
	ep := tc.net.Join("probe-appb")
	resp, err := ep.Call(transportMsgGet(straggler, 0, row0(999), "c"))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := decodeGetResp(resp.Payload)
	if res.Status == StatusOK {
		t.Errorf("orphan write visible at straggler: %q", res.Value)
	}
	// The skipped-LSN list records the logical truncation (§6.1.1).
	skipped, err := wal.LoadSkippedLSNs(tc.stores[straggler].Meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !skipped.Contains(orphanLSN) {
		t.Errorf("LSN %s not on the skipped list after recovery", orphanLSN)
	}
	// Every committed write survives at the straggler.
	for i := 1; i <= committed; i++ {
		resp, err := ep.Call(transportMsgGet(straggler, 0, row0(i), "c"))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := decodeGetResp(resp.Payload)
		if res.Status != StatusOK || string(res.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("committed key %d at straggler: %q status %d", i, res.Value, res.Status)
		}
	}
}

func TestConditionalMismatchWaitsForPendingWrite(t *testing.T) {
	// A conditional put rejected on the strength of a sequenced-but-
	// uncommitted write must not learn of that rejection before the
	// write it observed commits: a mismatch reply that precedes the
	// state justifying it lets a client prove a version change that
	// concurrent strong reads cannot yet see (the stale-read anomaly the
	// nemesis harness caught).
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.WriteTimeout = 5 * time.Second
	})
	tc.waitAllLeaders()
	c := tc.client()

	v1, err := c.Put(row0(60), "c", []byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	// Cut the leader off from its followers and sequence a write that
	// cannot commit (no quorum).
	leaderNode := tc.leaderOf(0)
	leader := leaderNode.ID()
	for _, name := range tc.layout.Cohort(0) {
		if name != leader {
			tc.net.Partition(leader, name)
		}
	}
	f := c.PutAsync(row0(60), "c", []byte("pending"))
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, ok := leaderNode.ReplicaStats(0)
		if ok && st.LastLSN > wal.LSN(v1) {
			break // the pending write is sequenced
		}
		if time.Now().After(deadline) {
			t.Fatal("pending write never sequenced at the leader")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The CAS observes the pending write's version and fails — but the
	// reply must be withheld while that write is uncommitted.
	done := make(chan error, 1)
	go func() {
		_, err := c.ConditionalPut(row0(60), "c", []byte("cas"), v1)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("conditional put returned (%v) while the write justifying its rejection was uncommitted", err)
	case <-time.After(400 * time.Millisecond):
	}

	// Heal: the pending write commits, and only then does the mismatch
	// reach the client.
	tc.net.HealAll()
	select {
	case err := <-done:
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("conditional put after heal: %v, want ErrVersionMismatch", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("conditional put never returned after heal")
	}
	if _, err := f.Wait(); err != nil {
		t.Fatalf("the observed write itself failed: %v", err)
	}
	got, _, err := c.Get(row0(60), "c", true)
	if err != nil || string(got) != "pending" {
		t.Fatalf("final state = %q, %v; want the pending write's value", got, err)
	}
}

func TestElectionIgnoresStaleCandidacies(t *testing.T) {
	// A candidate znode left over from an earlier election round (each
	// node cleans up only its own entries, Fig 7 line 1) must count
	// toward neither the quorum nor the winner of a later round: stale
	// entries carry out-of-date n.lst values, and counting them lets a
	// round conclude before the live nodes register — electing a laggard
	// over the node that holds committed writes, which are then
	// logically truncated. The churn suite surfaced this as lost
	// acknowledged increments. Pin it by planting a stale-round
	// candidacy with an absurdly high LSN: if any election round counted
	// it, the phantom would win every round and the range would never
	// elect a real leader again.
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	if _, err := c.Put(row0(90), "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	ghost := tc.coord.Connect()
	t.Cleanup(ghost.Close)
	if _, err := ghost.Create(candidatesPath(0)+"/c:ghost:",
		encodeCandidacy(0, wal.MakeLSN(40, 1)),
		coord.FlagEphemeral|coord.FlagSequential); err != nil {
		t.Fatal(err)
	}

	tc.crashNode(tc.leaderOf(0).ID())

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Put(row0(91), "c", []byte("y")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no real leader elected: the stale candidacy was counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, _, err := c.Get(row0(90), "c", true)
	if err != nil || string(got) != "x" {
		t.Fatalf("committed write after election = %q, %v", got, err)
	}
}

func TestMidTakeoverLeaderRejectsStrongReads(t *testing.T) {
	// A node that has claimed leadership but not finished takeover
	// (role=Leader, not yet open, Fig 6 line 10) must reject strongly
	// consistent reads: its engine may lack writes the previous leader
	// committed and acknowledged, so serving would read committed state
	// stale. Stall a takeover deterministically by partitioning the two
	// surviving followers from each other before crashing the leader —
	// whichever follower wins the election cannot sync the other and sits
	// mid-takeover until TakeoverTimeout.
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	if _, err := c.Put(row0(80), "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	oldLeader := tc.leaderOf(0).ID()
	var followers []string
	for _, name := range tc.layout.Cohort(0) {
		if name != oldLeader {
			followers = append(followers, name)
		}
	}
	tc.net.Partition(followers[0], followers[1])
	tc.crashNode(oldLeader)

	// Wait for a new claim, then probe it with strong reads while its
	// takeover is stalled: any StatusOK is a stale-read hole.
	sess := tc.coord.Connect()
	defer sess.Close()
	deadline := time.Now().Add(5 * time.Second)
	newLeader := ""
	for newLeader == "" {
		if data, err := sess.Get(leaderPath(0)); err == nil && string(data) != oldLeader {
			newLeader = string(data)
		}
		if time.Now().After(deadline) {
			t.Fatal("no new leadership claim")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ep := tc.net.Join("probe-midtakeover")
	probeUntil := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(probeUntil) {
		resp, err := ep.Call(transport.Message{
			To: newLeader, Kind: MsgGet, Cohort: 0,
			Payload: encodeGetReq(getReq{Row: row0(80), Col: "c", Consistent: true}),
		})
		if err != nil {
			continue
		}
		res, err := decodeGetResp(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == StatusOK {
			st := ReplicaStats{}
			if n, ok := tc.nodes[newLeader]; ok {
				st, _ = n.ReplicaStats(0)
			}
			t.Fatalf("mid-takeover leader %s served a strongly consistent read (stats %+v)", newLeader, st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Heal: takeover completes and strong reads resume, nothing lost.
	tc.net.HealAll()
	deadline = time.Now().Add(10 * time.Second)
	for {
		got, _, err := c.Get(row0(80), "c", true)
		if err == nil {
			if string(got) != "x" {
				t.Fatalf("value after takeover = %q", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("strong reads never resumed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWriteUnavailableWithoutQuorum(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *Config) {
		cfg.WriteTimeout = 150 * time.Millisecond
	})
	tc.waitAllLeaders()
	c := tc.client()

	if _, err := c.Put(row0(1), "c", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	// Cut the leader off from both followers: no quorum, no commits
	// (§8.1: available only while a majority of the cohort is up).
	leader := tc.leaderOf(0).ID()
	for _, name := range tc.layout.Cohort(0) {
		if name != leader {
			tc.net.Partition(leader, name)
		}
	}
	_, err := c.Put(row0(2), "c", []byte("stuck"))
	if err == nil {
		t.Fatal("write committed without a quorum")
	}

	// Heal: the cohort must become available again.
	tc.net.HealAll()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Put(row0(3), "c", []byte("healed")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cohort never recovered after heal")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCommittedDataSurvivesFullClusterRestart(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	for i := 0; i < 25; i++ {
		if _, err := c.Put(row0(i), "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	names := tc.layout.Cohort(0)
	for _, name := range names {
		tc.crashNode(name)
	}
	for _, name := range names {
		tc.restartNode(name)
	}
	tc.waitAllLeaders()

	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 25; i++ {
		for {
			got, _, err := c.Get(row0(i), "c", true)
			if err == nil {
				if string(got) != fmt.Sprintf("v%d", i) {
					t.Fatalf("key %d = %q after restart", i, got)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d lost in full restart: %v", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// transportMsgGet builds a timeline get aimed at a specific node.
func transportMsgGet(to string, cohort uint32, row, col string) transport.Message {
	return transport.Message{
		To: to, Kind: MsgGet, Cohort: cohort,
		Payload: encodeGetReq(getReq{Row: row, Col: col, Consistent: false}),
	}
}

// takeoverRace is an endpoint decorator, installed on every node, that
// stages a new leader's takeover of range 0 racing its first write: the
// leader's sync with one follower (the victim) stalls after the victim has
// answered the state request (Fig 6 line 4; a request to a node not yet on
// the network fails and is not held), the victim's acks are dropped
// and the other follower's acks wait, so the write stays uncommitted until
// the sync is over.
type takeoverRace struct {
	transport.Endpoint
	name string
	b    *takeoverBed
}

type takeoverBed struct {
	mu             sync.Mutex
	leader, victim string        // of the stalled sync
	stall          chan struct{} // closed to let the stalled sync go on
	synced         chan struct{} // closed once the victim has answered the takeover message
	syncedOnce     sync.Once
	acks           chan struct{} // closed to let the other follower's acks through
}

func (e takeoverRace) Call(m transport.Message) (transport.Message, error) {
	resp, err := e.Endpoint.Call(m)
	if m.Cohort != 0 {
		return resp, err
	}
	b := e.b
	b.mu.Lock()
	first := m.Kind == MsgStateReq && err == nil && b.leader == ""
	if first {
		b.leader, b.victim = e.name, m.To
	}
	synced := m.Kind == MsgTakeover && e.name == b.leader && m.To == b.victim
	b.mu.Unlock()
	if first {
		<-b.stall
	}
	if synced {
		b.syncedOnce.Do(func() { close(b.synced) })
	}
	return resp, err
}

func (e takeoverRace) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(m transport.Message) {
		b := e.b
		b.mu.Lock()
		ack := m.Kind == MsgAckBatch && m.Cohort == 0 && e.name == b.leader
		victim := m.From == b.victim
		b.mu.Unlock()
		if ack && victim {
			return
		}
		if ack {
			<-b.acks
		}
		h(m)
	})
}

// TestTakeoverSyncNotOvertakenByProposes: a new leader opens once one
// follower has caught up (Fig 6 line 8), while its sync with another may
// still be in flight. That sync's Present lists only the leader's writes
// from before the new term, and the follower truncates every ambiguous
// write it holds that the list leaves out. A write of the new term that
// reached the follower before the sync did was therefore truncated as a
// dead branch, and when the write committed the follower marked it
// committed without ever applying it. The follower must end up holding the
// write.
func TestTakeoverSyncNotOvertakenByProposes(t *testing.T) {
	b := &takeoverBed{stall: make(chan struct{}), synced: make(chan struct{}), acks: make(chan struct{})}
	var stallOnce, acksOnce sync.Once
	unstall := func() { stallOnce.Do(func() { close(b.stall) }) }
	passAcks := func() { acksOnce.Do(func() { close(b.acks) }) }
	// A long commit period keeps the commit message from reaching the
	// victim before the takeover message does.
	tc := newHookedTestCluster(t, 3, func(cfg *Config) { cfg.CommitPeriod = 500 * time.Millisecond }, testHooks{
		endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
			return takeoverRace{Endpoint: ep, name: name, b: b}
		},
	})
	t.Cleanup(passAcks) // before the cluster's shutdown: free held links
	t.Cleanup(unstall)
	tc.waitAllLeaders()
	b.mu.Lock()
	leader, victim := b.leader, b.victim
	b.mu.Unlock()
	if leader == "" || tc.leaderNameOf(0) != leader {
		t.Skipf("range 0 is led by %q, not by the node whose sync stalled (%q)", tc.leaderNameOf(0), leader)
	}
	row := rowInRange(tc.layout, 0)
	put := tc.client().PutAsync(row, "v", []byte("new-term"))
	// Once the leader has sequenced the write, let its propose reach the
	// victim if the leader sends it there.
	var lsn wal.LSN
	for deadline := time.Now().Add(10 * time.Second); lsn.IsZero(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the leader never sequenced the write")
		}
		st, _ := tc.nodes[leader].ReplicaStats(0)
		lsn = st.LastLSN
	}
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st, _ := tc.nodes[victim].ReplicaStats(0); st.LastLSN >= lsn {
			break
		}
	}
	unstall()
	select {
	case <-b.synced:
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled takeover sync never finished")
	}
	passAcks()
	if _, err := put.Wait(); err != nil {
		t.Fatal(err)
	}
	vr := tc.nodes[victim].getReplica(0)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, ok := vr.engine.Get(kv.Key{Row: row, Col: "v"}); ok {
			return
		}
		if time.Now().After(deadline) {
			st, _ := tc.nodes[victim].ReplicaStats(0)
			t.Fatalf("follower %s never applied the write the leader committed during its sync: %+v", victim, st)
		}
	}
}

// TestStopDuringTakeoverReproposeWait: a new leader whose re-proposals
// (Fig 6 line 9) cannot commit waits for them until TakeoverTimeout;
// Node.Stop must end that wait instead of sitting it out. Every ack of the
// range is dropped, so a write the old leader proposed stays pending on both
// followers; the old leader crashes, the winner syncs its peer, re-proposes
// the write and waits for an ack that never comes.
func TestStopDuringTakeoverReproposeWait(t *testing.T) {
	var (
		mu       sync.Mutex
		rangeID  uint32
		dropAcks bool
		leader   string // the new leader, once it claims the range
		reached  = make(chan struct{})
		once     sync.Once
	)
	tc := newHookedTestCluster(t, 3, func(cfg *Config) {
		cfg.TakeoverTimeout = 30 * time.Second
		cfg.WriteTimeout = 30 * time.Second
	}, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		return inboundHook{ep, func(m transport.Message) bool {
			mu.Lock()
			defer mu.Unlock()
			if m.Cohort != rangeID || !dropAcks {
				return true
			}
			if m.Kind == MsgProposeBatch && leader != "" && m.From == leader {
				once.Do(func() { close(reached) }) // a re-proposal is out
			}
			return m.Kind != MsgAckBatch
		}}
	}})
	tc.waitAllLeaders()
	r := tc.layout.RangeOf(row0(0))
	old := tc.waitFollowing(r)
	mu.Lock()
	rangeID, dropAcks = r, true
	mu.Unlock()

	tc.client().PutAsync(row0(0), "c", []byte("pending")) // never acknowledged
	var lsn wal.LSN
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the write never reached both followers' logs")
		}
		st, _ := tc.nodes[old].ReplicaStats(r)
		if lsn = st.LastLSN; lsn.IsZero() {
			continue
		}
		held := 0
		for _, name := range tc.layout.Cohort(r) {
			if st, _ := tc.nodes[name].ReplicaStats(r); name != old && st.LastLSN >= lsn {
				held++
			}
		}
		if held == 2 {
			break
		}
	}
	tc.crashNode(old)

	sess := tc.coord.Connect()
	defer sess.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no follower claimed the range")
		}
		if data, err := sess.Get(leaderPath(r)); err == nil && string(data) != old {
			mu.Lock()
			leader = string(data)
			mu.Unlock()
			break
		}
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the new leader never re-proposed the pending write")
	}
	if st, _ := tc.nodes[leader].ReplicaStats(r); st.Open || st.LastCommitted >= lsn {
		t.Fatalf("the new leader finished its takeover: %+v", st)
	}

	stopped := make(chan struct{})
	go func() {
		tc.nodes[leader].Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		delete(tc.nodes, leader)
	case <-time.After(5 * time.Second):
		t.Fatal("Node.Stop is still waiting for the takeover's re-proposals after 5 s")
	}
}
