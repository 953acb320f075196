package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// rowsOf returns n rows that the layout places in range rid.
func (tc *testCluster) rowsOf(rid uint32, n int) []string {
	var rows []string
	for i := 0; len(rows) < n; i++ {
		if row := row0(i); tc.layout.RangeOf(row) == rid {
			rows = append(rows, row)
		}
	}
	return rows
}

// ackTap is an endpoint decorator that shows every message its node sends
// to a hook before sending it.
type ackTap struct {
	transport.Endpoint
	sent func(m transport.Message)
}

func (e ackTap) Send(m transport.Message) error {
	e.sent(m)
	return e.Endpoint.Send(m)
}

// TestDeposedLeaderDeadWrite: leader L, cut off from both followers, logs a
// write X that no follower receives, and steps down; the put answers
// ErrAmbiguous. The others elect N and commit four writes on the range,
// which take X's sequence number and the ones after it in N's term. Once
// the cut heals, X is a dead branch (§6.1.1): no cohort member may serve it,
// and L may not log a propose of N's term until it has synced with that
// term, that is, until it has truncated X.
func TestDeposedLeaderDeadWrite(t *testing.T) {
	const rid = 0
	var (
		mu      sync.Mutex
		deposed *replica
		dead    wal.LSN
		checked int
		early   []wal.LSN // L's acks of N's term sent while X was not truncated
	)
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		// A call to a cut-off peer costs its timeout; keep that short.
		ep.(*transport.LocalEndpoint).SetCallTimeout(200 * time.Millisecond)
		return ackTap{ep, func(m transport.Message) {
			if m.Kind != MsgAckBatch || m.Cohort != rid {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if deposed == nil || deposed.n.cfg.ID != name || dead.IsZero() {
				return
			}
			through, _, err := decodeAck(m.Payload)
			if err != nil || through.Epoch() <= dead.Epoch() {
				return
			}
			checked++
			deposed.mu.Lock()
			truncated := deposed.skipped.Contains(dead)
			deposed.mu.Unlock()
			if !truncated {
				early = append(early, through)
			}
		}}
	}})
	tc.waitAllLeaders()
	l := tc.waitFollowing(rid)
	rows := tc.rowsOf(rid, 6)
	x := rows[0]
	cl := tc.client()
	cl.SetStrictWrites(true)

	for _, name := range tc.layout.Cohort(rid) {
		if name != l {
			tc.net.Partition(l, name)
		}
	}
	fut := cl.PutAsync(x, "c", []byte("dead"))
	lr := tc.nodes[l].getReplica(rid)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if st, _ := tc.nodes[l].ReplicaStats(rid); st.Pending > 0 {
			mu.Lock()
			deposed, dead = lr, st.LastLSN
			mu.Unlock()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the leader never held the write pending")
		}
		time.Sleep(time.Millisecond)
	}
	if !tc.nodes[l].StepDown(rid) {
		t.Fatal("StepDown: not the leader")
	}
	if _, err := fut.Wait(); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("put of the write the deposed leader held: %v, want ErrAmbiguous", err)
	}

	var n string
	for deadline := time.Now().Add(10 * time.Second); n == ""; {
		if n = tc.openLeaderOtherThan(rid, l); n == "" {
			if time.Now().After(deadline) {
				t.Fatal("no new leader")
			}
			time.Sleep(time.Millisecond)
		}
	}
	var last uint64
	for _, row := range rows[1:5] {
		v, err := cl.Put(row, "c", []byte("live"))
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	if wal.LSN(last).Seq() < dead.Seq() {
		t.Fatalf("the new term's writes end at %s, below the dead write %s", wal.LSN(last), dead)
	}
	tc.net.HealAll()
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, _ := tc.nodes[l].ReplicaStats(rid)
		if st.Role == RoleFollower && st.Leader == n && st.LastCommitted >= wal.LSN(last) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deposed leader %s never caught up with %s: %+v", l, n, st)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)

	probe := tc.net.Join("probe-dead-write")
	for _, name := range tc.layout.Cohort(rid) {
		resp, err := probe.Call(transportMsgGet(name, rid, x, "c"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := decodeGetResp(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusNotFound {
			t.Errorf("timeline get of the dead write at %s: status %d value %q version %s, want not found",
				name, res.Status, res.Value, wal.LSN(res.Version))
		}
	}
	if v, _, err := cl.Get(x, "c", true); !errors.Is(err, ErrNotFound) {
		t.Errorf("strong get of the dead write: %q, %v; want not found", v, err)
	}

	// One more write, which L logs and acks as a follower of N's term.
	v, err := cl.Put(rows[5], "c", []byte("live"))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		mu.Lock()
		acked := checked
		mu.Unlock()
		if st, _ := tc.nodes[l].ReplicaStats(rid); st.LastLSN >= wal.LSN(v) && acked > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never acked a write of the new term", l)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(early) > 0 {
		t.Errorf("%s acked %v of the new term before truncating the dead write %s (%d acks checked)",
			l, early, dead, checked)
	}
}

// TestLosingCandidatesFollow: every replica that does not lead its range
// reports RoleFollower with the leader's id once the cohort has settled,
// after the first elections and again after a leader's crash and restart.
// A candidate that lost must not keep the label while it follows.
func TestLosingCandidatesFollow(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	cl := tc.client()
	put := func(round int) {
		for i := 0; i < 20; i++ {
			if _, err := cl.Put(row0(i), "c", []byte(fmt.Sprint(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for r := uint32(0); r < uint32(tc.layout.NumRanges()); r++ {
			leader := tc.leaderOf(r).ID()
			for _, name := range tc.layout.Cohort(r) {
				if name == leader {
					continue
				}
				for deadline := time.Now().Add(5 * time.Second); ; {
					st, _ := tc.nodes[name].ReplicaStats(r)
					if st.Role == RoleFollower && st.Leader == leader {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("%s: %s in range %d reports %s following %q, want follower of %s",
							when, name, r, st.Role, st.Leader, leader)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}
	}
	put(0)
	check("after bootstrap")

	victim := tc.leaderOf(0).ID()
	tc.crashNode(victim)
	tc.restartNode(victim)
	tc.waitAllLeaders()
	put(1)
	check("after " + victim + "'s crash and restart")
}
