package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/kv"
	"spinnaker/internal/transport"
)

// TestLeaderCacheStaleOnZnodeChange drives the client's leader cache against
// a bare coordination service (no nodes, so no call can fail): an entry is
// served from the cache without allocating until its znode is deleted or
// rewritten, and is stale from that moment — the shape of a leader that is
// isolated rather than crashed. With no leader, the armed watch comes back
// for the caller to wait on.
func TestLeaderCacheStaleOnZnodeChange(t *testing.T) {
	svc := coord.NewService(0)
	defer svc.Stop()
	net := transport.NewNetwork(0)
	defer net.Close()
	layout, err := cluster.Uniform([]string{"n0", "n1", "n2"}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(layout, net.Join("client"), svc, 1)
	defer c.Close()
	admin := svc.Connect()
	defer admin.Close()
	if err := admin.EnsurePath(rangePath(0)); err != nil {
		t.Fatal(err)
	}
	expect := func(want string) {
		t.Helper()
		if got, watch, err := c.leader(0); got != want || watch != nil || err != nil {
			t.Fatalf("leader(0) = %q, watch %v, %v; want %q from the cache or a fresh read", got, watch != nil, err, want)
		}
	}

	if _, err := admin.Create(leaderPath(0), []byte("n0"), 0); err != nil {
		t.Fatal(err)
	}
	expect("n0")
	if allocs := testing.AllocsPerRun(100, func() { expect("n0") }); allocs != 0 {
		t.Errorf("cache hit allocates %.0f objects, want 0", allocs)
	}

	if err := admin.Delete(leaderPath(0)); err != nil {
		t.Fatal(err)
	}
	_, watch, err := c.leader(0)
	if !errors.Is(err, ErrUnavailable) || watch == nil {
		t.Fatalf("leader(0) with the znode deleted = watch %v, %v; want ErrUnavailable and a watch to wait on", watch != nil, err)
	}
	if _, err := admin.Create(leaderPath(0), []byte("n1"), 0); err != nil {
		t.Fatal(err)
	}
	if ev := <-watch; ev.Type != coord.EventCreated {
		t.Fatalf("watch fired with %v, want created", ev.Type)
	}
	expect("n1")

	if err := admin.Set(leaderPath(0), []byte("n2")); err != nil {
		t.Fatal(err)
	}
	expect("n2")
}

// TestClientOutlivesSessionTimeout: a client left idle past its coord
// session timeout keeps working. The expiry fires its leader watches, so
// the next operation on each range misses the cache; the miss heartbeats
// the dead session, fails, and connects a fresh one. It used to answer
// every miss ErrUnavailable ("session expired or closed") from then on.
func TestClientOutlivesSessionTimeout(t *testing.T) {
	tc := newHookedTestCluster(t, 3, func(cfg *Config) { cfg.HeartbeatInterval = 20 * time.Millisecond },
		testHooks{sessionTimeout: 100 * time.Millisecond})
	tc.waitAllLeaders()
	c := tc.client()
	if _, err := c.Put(row0(1), "c", []byte("before")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if got, _, err := c.Get(row0(1), "c", true); err != nil || string(got) != "before" {
		t.Fatalf("strong get after the session expired = %q, %v", got, err)
	}
	if _, err := c.Put(row0(2), "c", []byte("after")); err != nil {
		t.Fatalf("put after the session expired: %v", err)
	}
}

// detourEndpoint sends its next few calls to a closed endpoint instead of
// their destination, so they fail exactly as a call to a crashed node does.
type detourEndpoint struct {
	transport.Endpoint
	detours atomic.Int32
	calls   atomic.Int32
}

func (e *detourEndpoint) Call(m transport.Message) (transport.Message, error) {
	e.calls.Add(1)
	if e.detours.Add(-1) >= 0 {
		m.To = "gone"
	}
	return e.Endpoint.Call(m)
}

// TestStrictWriteRetriesNeverLeftFailure: a transport failure that proves the
// request never left is retried even by a strict-write client.
func TestStrictWriteRetriesNeverLeftFailure(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	tc.net.Join("gone").Close()
	ep := &detourEndpoint{Endpoint: tc.net.Join("strict-client")}
	c := NewClient(tc.layout, ep, tc.coord, 1)
	defer c.Close()
	c.SetStrictWrites(true)

	ep.detours.Store(2)
	if _, err := c.Put(row0(1), "c", []byte("v")); err != nil {
		t.Fatalf("strict put after two never-left failures: %v", err)
	}
	if n := ep.calls.Load(); n != 3 {
		t.Errorf("put took %d calls, want 3 (two refused, one served)", n)
	}
}

// TestStrictWriteSurfacesInFlightPeerClose: the leader dies holding a
// sequenced, uncommitted write. The client's call returns at once (its 30 s
// timeout plays no part) and a strict-write client reports ErrAmbiguous
// rather than retry a write that may yet commit.
func TestStrictWriteSurfacesInFlightPeerClose(t *testing.T) {
	tc := newTestCluster(t, 3, func(cfg *Config) { cfg.WriteTimeout = 30 * time.Second })
	tc.waitAllLeaders()
	ep := tc.net.Join("strict-client")
	ep.SetCallTimeout(30 * time.Second)
	c := NewClient(tc.layout, ep, tc.coord, 1)
	defer c.Close()
	c.SetStrictWrites(true)
	if _, err := c.Put(row0(1), "c", []byte("committed")); err != nil {
		t.Fatal(err)
	}

	leader := tc.leaderOf(0)
	for _, name := range tc.layout.Cohort(0) {
		if name != leader.ID() {
			tc.net.Partition(leader.ID(), name) // no quorum: the write stays pending
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Put(row0(2), "c", []byte("in flight"))
		errc <- err
	}()
	for {
		if st, _ := leader.ReplicaStats(0); st.Pending > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	tc.crashNode(leader.ID())
	select {
	case err := <-errc:
		if !errors.Is(err, ErrAmbiguous) {
			t.Errorf("strict put in flight at the crash: %v, want ErrAmbiguous", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("put still waiting after its leader crashed")
	}
}

// TestClientGetAllocs: a get that hits allocates one object end to end, on
// both consistency levels: the reply buffer, whose value the caller gets.
// The request is encoded into a pooled buffer, the server decodes it in
// place, and the transport's wait slot is recycled. The count covers the
// client, the transport and the server's handler, which runs on another
// goroutine inside the measured call.
func TestClientGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	tc := newTestCluster(t, 3, nil) // the smallest cohort that can elect a leader
	tc.waitAllLeaders()
	c := tc.client()
	want := bytes.Repeat([]byte("v"), 256)
	if _, err := c.Put("row-allocs", "col", want); err != nil {
		t.Fatal(err)
	}
	// Timeline gets pick any replica: wait out the commit period, until the
	// followers have applied the put too.
	for streak, deadline := 0, time.Now().Add(10*time.Second); streak < 50; streak++ {
		if _, _, err := c.Get("row-allocs", "col", false); err != nil {
			if streak = -1; time.Now().After(deadline) {
				t.Fatalf("timeline get: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, consistent := range []bool{true, false} {
		var (
			got []byte
			err error
		)
		n := testing.AllocsPerRun(500, func() { got, _, err = c.Get("row-allocs", "col", consistent) })
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("consistent=%v: Get = %d bytes, %v", consistent, len(got), err)
		}
		if n > 1 {
			t.Errorf("consistent=%v: %v allocs per Get, want ≤ 1", consistent, n)
		}
	}
}

// TestGetsUnderDuplicationFault: every message from the client is delivered
// twice, while its gets encode their requests into pooled buffers that the
// next get rewrites as soon as a reply is back. The duplicate carries a
// clone taken before the first delivery, so every get reads the row it
// asked for, and under -race no read of a reused buffer races its rewrite.
func TestGetsUnderDuplicationFault(t *testing.T) {
	const rows, gets, readers = 16, 1500, 4
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	ep := tc.net.Join("dup-client")
	c := NewClient(tc.layout, ep, tc.coord, 1)
	defer c.Close()
	for i := 0; i < rows; i++ {
		if _, err := c.Put(row0(i), "c", []byte(row0(i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range tc.layout.Nodes() {
		tc.net.SetLinkFaults("dup-client", n, transport.LinkFaults{DupProb: 1})
	}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			for i := 0; i < gets; i++ {
				row, consistent := row0((r*7+i)%rows), i%3 != 0
				got, _, err := c.Get(row, "c", consistent)
				if err == nil && string(got) != row {
					err = fmt.Errorf("Get(%s, consistent=%v) = %q", row, consistent, got)
				}
				if err == nil && i%50 == 0 {
					var ents []kv.Entry
					if ents, err = c.GetRow(row, true); err == nil && (len(ents) != 1 || string(ents[0].Cell.Value) != row) {
						err = fmt.Errorf("GetRow(%s) = %v", row, ents)
					}
				}
				if err != nil && (consistent || !errors.Is(err, ErrNotFound)) {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for r := 0; r < readers; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if delivered, _ := tc.net.Stats(); delivered == 0 {
		t.Fatal("no message delivered")
	}
}

// TestPutAllocs counts the heap objects a replicated put allocates end to end:
// the client's encode and call, the leader's sequencing, log append,
// propose and commit, each follower's append and ack, and every replica's
// memtable apply. Sequential puts are the worst case for the per-batch
// objects (a batch of one). The count runs until every replica has applied
// every put, and includes whatever the nodes' timers allocate meanwhile.
func TestPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	if ParanoidAckChecks {
		t.Skip("the paranoid ack check scans the log before every ack")
	}
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	// Count a settled cluster: a follower still catching up, or one whose
	// leader is still syncing it, repairs the writes it misses through
	// catch-up, which allocates per round.
	for r := 0; r < tc.layout.NumRanges(); r++ {
		tc.waitFollowing(uint32(r))
	}
	c := tc.client()
	const puts = 2000
	rows := make([]string, puts+1)
	for i := range rows {
		rows[i] = fmt.Sprintf("put-allocs-%06d", i)
	}
	value := bytes.Repeat([]byte("v"), 1024)
	if _, err := c.Put(rows[puts], "col", value); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, row := range rows[:puts] {
		if _, err := c.Put(row, "col", value); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < tc.layout.NumRanges(); r++ {
		st, _ := tc.leaderOf(uint32(r)).ReplicaStats(uint32(r))
		for _, n := range tc.nodes {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if fst, _ := n.ReplicaStats(uint32(r)); fst.LastCommitted >= st.LastLSN {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s never applied range %d through %v", n.ID(), r, st.LastLSN)
				}
			}
		}
	}
	runtime.ReadMemStats(&after)
	perPut := float64(after.Mallocs-before.Mallocs) / puts
	t.Logf("%.1f allocs per put", perPut)
	// 1.4 measured with pending writes, propose payloads and acks carved
	// from per-replica blocks, the reply encoded into its pending write and
	// one drain loop per replica: what is left is mostly the client's
	// encode, the put's own bytes; the bound leaves 10%.
	if perPut > 1.55 {
		t.Errorf("%.2f allocs per replicated put, want ≤ 1.55", perPut)
	}
}

// TestKeyTooLongRejected: the formats carry key lengths in 16 bits, so a
// longer row key or column name is refused at the client before anything is
// encoded — it used to wrap on the wire and address a different, shorter key
// — and a key of exactly maxKeyLen bytes still round-trips.
func TestKeyTooLongRejected(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()
	long, max := strings.Repeat("k", maxKeyLen+1), strings.Repeat("k", maxKeyLen)
	if _, err := c.Put(long, "c", []byte("v")); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("Put with a %d-byte row: %v, want ErrKeyTooLong", len(long), err)
	}
	if _, err := c.MultiPut("r", []Column{{Col: "ok"}, {Col: long}}); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("MultiPut with a %d-byte column: %v, want ErrKeyTooLong", len(long), err)
	}
	if _, err := c.PutAsync("r", long, nil).Wait(); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("PutAsync with a %d-byte column: %v, want ErrKeyTooLong", len(long), err)
	}
	for _, consistent := range []bool{true, false} {
		if _, _, err := c.Get(long, "c", consistent); !errors.Is(err, ErrKeyTooLong) {
			t.Errorf("Get with a %d-byte row: %v, want ErrKeyTooLong", len(long), err)
		}
		if _, _, err := c.Get("r", long, consistent); !errors.Is(err, ErrKeyTooLong) {
			t.Errorf("Get with a %d-byte column: %v, want ErrKeyTooLong", len(long), err)
		}
		if _, err := c.GetRow(long, consistent); !errors.Is(err, ErrKeyTooLong) {
			t.Errorf("GetRow with a %d-byte row: %v, want ErrKeyTooLong", len(long), err)
		}
	}
	if _, err := c.Put(max, max, []byte("edge")); err != nil {
		t.Fatalf("Put with %d-byte row and column: %v", len(max), err)
	}
	if got, _, err := c.Get(max, max, true); err != nil || string(got) != "edge" {
		t.Errorf("Get with %d-byte row and column = %q, %v", len(max), got, err)
	}
	if row, err := c.GetRow(max, true); err != nil || len(row) != 1 || row[0].Key.Col != max {
		t.Errorf("GetRow with a %d-byte row = %d entries, %v", len(max), len(row), err)
	}
}
