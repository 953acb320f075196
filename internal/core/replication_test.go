package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// proposeCounter is an endpoint decorator that records, for every
// MsgProposeBatch a node sends, how many records it carries, and counts the
// MsgAckBatch messages sent and the watermark each sender acked through.
type proposeCounter struct {
	mu       sync.Mutex
	proposes []int // record count of each propose message, all nodes
	proposed wal.LSN
	acks     int
	acked    map[string]wal.LSN
}

type countingEndpoint struct {
	transport.Endpoint
	c *proposeCounter
}

func (e countingEndpoint) Send(m transport.Message) error {
	switch m.Kind {
	case MsgProposeBatch:
		if b, err := decodeProposeBatch(m.Payload, nil); err == nil && len(b) > 0 {
			e.c.mu.Lock()
			e.c.proposes = append(e.c.proposes, len(b))
			e.c.proposed = max(e.c.proposed, b[len(b)-1].lsn)
			e.c.mu.Unlock()
		}
	case MsgAckBatch:
		if lsn, _, err := decodeAck(m.Payload); err == nil {
			e.c.mu.Lock()
			e.c.acks++
			if e.c.acked == nil {
				e.c.acked = make(map[string]wal.LSN)
			}
			e.c.acked[e.ID()] = max(e.c.acked[e.ID()], lsn)
			e.c.mu.Unlock()
		}
	}
	return e.Endpoint.Send(m)
}

// snapshot returns the propose sizes, the ack count, and whether at least
// the given number of senders have acked through everything proposed.
func (c *proposeCounter) snapshot(followers int) (proposes []int, acks int, covered bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, lsn := range c.acked {
		if lsn >= c.proposed {
			n++
		}
	}
	return append([]int(nil), c.proposes...), c.acks, n >= followers
}

// TestProposalBatchingCap pins that concurrently sequenced writes share
// propose messages on the one replication path, and that a propose message
// draws at most one cumulative ack: a follower's ack loop merges the acks of
// batches that arrive while it forces, and the acks still cover every
// proposed write.
func TestProposalBatchingCap(t *testing.T) {
	const writes = 64
	t.Run("batched", func(t *testing.T) {
		counter := &proposeCounter{}
		tc := newHookedTestCluster(t, 3, func(cfg *Config) {
			// No retransmissions (they start at two commit periods): every
			// propose counted below is a first transmission.
			cfg.CommitPeriod = time.Second
		}, testHooks{
			// A force that takes a moment, so writes sequenced meanwhile
			// queue up behind the outstanding batch.
			stores: func(string) *Stores { return NewMemStores(wal.DeviceMem) },
			endpoint: func(_ string, ep transport.Endpoint) transport.Endpoint {
				return countingEndpoint{ep, counter}
			},
		})
		tc.waitAllLeaders()
		// A follower still recovering (or not yet following this leader)
		// rightly ignores proposes; count only a settled cohort.
		tc.waitFollowing(tc.layout.RangeOf(row0(0)))
		c := tc.client()
		futures := make([]*WriteFuture, writes)
		for i := range futures {
			futures[i] = c.PutAsync(row0(i), "c", []byte("v"))
		}
		for i, f := range futures {
			if _, err := f.Wait(); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		// A write commits on the first follower's ack; let the second
		// follower's acks arrive too.
		var (
			proposes []int
			acks     int
			covered  bool
		)
		deadline := time.Now().Add(5 * time.Second)
		for {
			proposes, acks, covered = counter.snapshot(2)
			if covered || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		most := 0
		for _, n := range proposes {
			most = max(most, n)
		}
		if most < 2 {
			t.Fatalf("no propose message carried more than one record: %v", proposes)
		}
		if !covered {
			t.Fatalf("the followers' acks never covered the last proposed write (%d acks for %d proposes)", acks, len(proposes))
		}
		if acks > len(proposes) {
			t.Fatalf("%d propose messages drew %d acks", len(proposes), acks)
		}
	})
}

// waitFollowing waits until every follower of rangeID has left
// RoleRecovering and follows the range's current leader, whose id it
// returns, and until the leader's takeover syncs are over, so that its
// proposes reach every follower (proposalPeersLocked).
func (tc *testCluster) waitFollowing(rangeID uint32) string {
	tc.t.Helper()
	ln := tc.leaderOf(rangeID)
	leader := ln.ID()
	for _, name := range tc.layout.Cohort(rangeID) {
		for name != leader {
			st, _ := tc.nodes[name].ReplicaStats(rangeID)
			if st.Role != RoleRecovering && st.Leader == leader {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	r := ln.getReplica(rangeID)
	for {
		r.mu.Lock()
		syncing := len(r.syncing)
		r.mu.Unlock()
		if syncing == 0 {
			return leader
		}
		time.Sleep(time.Millisecond)
	}
}

// forceHookStore is a wal.SegmentStore decorator whose devices run hook
// before every Force; a hook error fails the force.
type forceHookStore struct {
	wal.SegmentStore
	hook func() error
}

type forceHookDevice struct {
	wal.Device
	hook func() error
}

func (s forceHookStore) wrap(d wal.Device, err error) (wal.Device, error) {
	if err != nil {
		return nil, err
	}
	return forceHookDevice{d, s.hook}, nil
}

func (s forceHookStore) Open(id uint64) (wal.Device, error) { return s.wrap(s.SegmentStore.Open(id)) }
func (s forceHookStore) Create(id uint64) (wal.Device, error) {
	return s.wrap(s.SegmentStore.Create(id))
}

func (d forceHookDevice) Force() error {
	if err := d.hook(); err != nil {
		return err
	}
	return d.Device.Force()
}

// hookForces returns memory stores on the instant device whose log runs hook
// before every force.
func hookForces(hook func() error) *Stores {
	s := NewMemStores(wal.DeviceInstant)
	s.Segments = forceHookStore{s.Segments, hook}
	return s
}

var errInjectedForce = errors.New("injected force failure")

// TestLeaderForceErrorAnswersAmbiguous: when the leader's log force fails,
// the clients of that batch are told StatusAmbiguous at once — the writes
// are sequenced and proposed, so they stay queued for a takeover to commit —
// instead of hanging until the WriteTimeout sweep. The failed force also
// resolves the batch's propose window: once the failure clears, the next
// write is still proposed (the leader's log stays failed, so it too is
// answered ambiguous at once), and a healthy successor commits it.
func TestLeaderForceErrorAnswersAmbiguous(t *testing.T) {
	const writeTimeout = 30 * time.Second
	failing := make(map[string]*atomic.Bool)
	tc := newHookedTestCluster(t, 3, func(cfg *Config) {
		cfg.WriteTimeout = writeTimeout
	}, testHooks{stores: func(name string) *Stores {
		fail := new(atomic.Bool)
		failing[name] = fail
		return hookForces(func() error {
			if fail.Load() {
				return errInjectedForce
			}
			return nil
		})
	}})
	tc.waitAllLeaders()

	rangeID := tc.layout.RangeOf(row0(0))
	// A follower still recovering ignores proposes, and would then refuse
	// the later ones as a gap; the check below needs both to log them.
	leader := tc.nodes[tc.waitFollowing(rangeID)]
	failing[leader.ID()].Store(true)

	ep := tc.net.Join("strict-client")
	// The leader's answer, not the client's patience, must end the wait.
	ep.SetCallTimeout(writeTimeout)
	c := NewClient(tc.layout, ep, tc.coord, 1)
	defer c.Close()
	c.SetStrictWrites(true)

	const writes = 8
	start := time.Now()
	futures := make([]*WriteFuture, writes)
	for i := range futures {
		futures[i] = c.PutAsync(row0(i), "c", []byte("v"))
	}
	for i, f := range futures {
		_, err := f.Wait()
		if !errors.Is(err, ErrAmbiguous) || !strings.Contains(err.Error(), errInjectedForce.Error()) {
			t.Fatalf("put %d: %v, want ErrAmbiguous carrying the force error", i, err)
		}
	}
	if took := time.Since(start); took >= writeTimeout {
		t.Fatalf("futures resolved after %v: the WriteTimeout sweep answered, not the drainer", took)
	}
	q := leader.getReplica(rangeID).queue
	if n := q.len(); n != writes {
		t.Errorf("%d writes still queued on the leader, want all %d (a takeover may yet commit them)", n, writes)
	}
	if stale := q.staleResponders(writeTimeout); len(stale) != 0 {
		t.Errorf("%d writes were old enough for the WriteTimeout sweep", len(stale))
	}

	// The failure clears. A write that waited behind the failed batch's
	// window would be answered by the WriteTimeout sweep; a proposed one
	// reaches its own force, which reports the log's (sticky) failure.
	failing[leader.ID()].Store(false)
	last := row0(writes)
	if _, err := c.Put(last, "c", []byte("last")); !errors.Is(err, ErrAmbiguous) ||
		!strings.Contains(err.Error(), errInjectedForce.Error()) {
		t.Fatalf("put after the failure cleared: %v, want ErrAmbiguous carrying the force error", err)
	}
	// A proposed write reaches the followers' logs; a healthy successor's
	// takeover then commits it.
	lst, _ := leader.ReplicaStats(rangeID)
	for _, name := range tc.layout.Cohort(rangeID) {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if st, _ := tc.nodes[name].ReplicaStats(rangeID); st.LastLSN >= lst.LastLSN {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never logged %v, the write proposed after the failure", name, lst.LastLSN)
			}
		}
	}
	for i := 0; tc.leaderOf(rangeID) == leader; i++ {
		if i == 10 {
			t.Fatal("the failed leader kept the range")
		}
		leader.StepDown(rangeID)
		tc.waitAllLeaders()
	}
	reader := tc.client()
	if v, _, err := reader.Get(last, "c", true); err != nil || string(v) != "last" {
		t.Fatalf("strong read of the write proposed after the failure: %q, %v; want \"last\"", v, err)
	}
	if _, err := reader.Put(row0(writes+1), "c", []byte("v")); err != nil {
		t.Fatalf("put through the successor: %v", err)
	}
}

// inboundHook is an endpoint decorator that shows every inbound message to
// saw before the node's handler gets it; a message saw returns false for is
// dropped.
type inboundHook struct {
	transport.Endpoint
	saw func(m transport.Message) bool
}

func (e inboundHook) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(m transport.Message) {
		if e.saw(m) {
			h(m)
		}
	})
}

// timeoutCounter counts the calls that ended in transport.ErrTimeout.
type timeoutCounter struct {
	transport.Endpoint
	timeouts atomic.Int64
}

func (e *timeoutCounter) Call(m transport.Message) (transport.Message, error) {
	resp, err := e.Endpoint.Call(m)
	if errors.Is(err, transport.ErrTimeout) {
		e.timeouts.Add(1)
	}
	return resp, err
}

// TestLeaderSendsProposesBeforeForcing pins Figure 4's overlap without a
// clock: the leader hands a write's proposes to the network before it forces
// its own log. Here the leader's force cannot finish until the write's
// MsgProposeBatch has reached both followers, so a leader that forced first
// would never send, and the write would wait out its 30 s call timeout.
func TestLeaderSendsProposesBeforeForcing(t *testing.T) {
	const timeout = 30 * time.Second
	var (
		mu      sync.Mutex
		leader  string // whose forces wait; "" until the cohort has settled
		rangeID uint32
		reached = make(map[string]bool)
	)
	proposed := make(chan struct{}) // closed once both followers have the write
	release := make(chan struct{})  // lets a held force return at cleanup
	tc := newHookedTestCluster(t, 3, func(cfg *Config) {
		cfg.WriteTimeout = timeout
	}, testHooks{
		stores: func(name string) *Stores {
			return hookForces(func() error {
				mu.Lock()
				held := name == leader
				mu.Unlock()
				if held {
					select {
					case <-proposed:
					case <-release:
					}
				}
				return nil
			})
		},
		endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
			return inboundHook{ep, func(m transport.Message) bool {
				if m.Kind != MsgProposeBatch {
					return true
				}
				mu.Lock()
				defer mu.Unlock()
				if leader != "" && m.Cohort == rangeID && !reached[name] {
					reached[name] = true
					if len(reached) == 2 {
						close(proposed)
					}
				}
				return true
			}}
		},
	})
	t.Cleanup(func() { close(release) }) // runs before the cluster's shutdown
	tc.waitAllLeaders()
	r := tc.layout.RangeOf(row0(0))
	l := tc.waitFollowing(r)
	mu.Lock()
	leader, rangeID = l, r
	mu.Unlock()

	local := tc.net.Join("overlap-client")
	local.SetCallTimeout(timeout)
	ep := &timeoutCounter{Endpoint: local}
	c := NewClient(tc.layout, ep, tc.coord, 1)
	defer c.Close()
	if _, err := c.Put(row0(0), "c", []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if n := ep.timeouts.Load(); n != 0 {
		t.Fatalf("%d calls ended in ErrTimeout, want 0", n)
	}
}

// windowBed is a three-node cluster built for counting one range's
// proposes: the followers' acks to that range's leader can be held or
// dropped, every MsgProposeBatch the leader sends is recorded, per
// receiving follower, as its record count, and every MsgAckBatch the leader
// receives is counted per sending follower. The leader's stale-propose
// sweep re-sends an unacknowledged write after two commit periods.
type windowBed struct {
	tc *testCluster

	mu      sync.Mutex
	rangeID uint32
	leader  string           // whose proposes are counted and acks held; "" until set
	hold    chan struct{}    // non-nil: acks to the leader wait until it closes
	drop    bool             // acks to the leader are lost
	got     map[string][]int // per follower: record count of each propose from leader
	acks    map[string]int   // per follower: acks the leader received from it
}

func newWindowBed(t *testing.T, timeout, commitPeriod time.Duration) *windowBed {
	b := &windowBed{got: make(map[string][]int), acks: make(map[string]int)}
	b.tc = newHookedTestCluster(t, 3, func(cfg *Config) {
		cfg.CommitPeriod = commitPeriod
		cfg.WriteTimeout = timeout
	}, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		return inboundHook{ep, func(m transport.Message) bool {
			b.mu.Lock()
			var hold chan struct{}
			keep := true
			if b.leader != "" && m.Cohort == b.rangeID {
				switch {
				case m.Kind == MsgAckBatch && name == b.leader:
					hold, keep = b.hold, !b.drop
					if keep {
						b.acks[m.From]++
					}
				case m.Kind == MsgProposeBatch && m.From == b.leader:
					if pb, err := decodeProposeBatch(m.Payload, nil); err == nil {
						b.got[name] = append(b.got[name], len(pb))
					}
				}
			}
			b.mu.Unlock()
			if hold != nil {
				<-hold
			}
			return keep
		}}
	}})
	t.Cleanup(b.release) // before the cluster's shutdown: free held links
	b.tc.waitAllLeaders()
	rangeID := b.tc.layout.RangeOf(row0(0))
	leader := b.tc.waitFollowing(rangeID)
	b.mu.Lock()
	b.rangeID, b.leader = rangeID, leader
	b.mu.Unlock()
	return b
}

// holdAcks makes the followers' acks to the leader wait until release.
func (b *windowBed) holdAcks() {
	b.mu.Lock()
	b.hold = make(chan struct{})
	b.mu.Unlock()
}

// dropAcks sets whether the followers' acks to the leader are lost.
func (b *windowBed) dropAcks(drop bool) {
	b.mu.Lock()
	b.drop = drop
	b.mu.Unlock()
}

// release lets held acks through and stops holding new ones.
func (b *windowBed) release() {
	b.mu.Lock()
	if b.hold != nil {
		close(b.hold)
		b.hold = nil
	}
	b.mu.Unlock()
}

func (b *windowBed) followers() []string {
	var out []string
	for _, name := range b.tc.layout.Cohort(b.rangeID) {
		if name != b.leader {
			out = append(out, name)
		}
	}
	return out
}

// ackCount returns how many acks the leader has received from follower.
func (b *windowBed) ackCount(follower string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.acks[follower]
}

// proposes returns the record counts of the proposes follower has received
// from the leader.
func (b *windowBed) proposes(follower string) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.got[follower]...)
}

// waitProposes waits until every follower has received n more proposes
// from the leader than before[follower] (nil: none before) and returns
// their record counts, per follower.
func (b *windowBed) waitProposes(before map[string]int, n int) map[string][]int {
	b.tc.t.Helper()
	out := make(map[string][]int)
	deadline := time.Now().Add(10 * time.Second)
	for _, f := range b.followers() {
		for len(b.proposes(f)) < before[f]+n {
			if time.Now().After(deadline) {
				b.tc.t.Fatalf("follower %s received %v from %s, want %d proposes", f, b.proposes(f), b.leader, n)
			}
			time.Sleep(time.Millisecond)
		}
		out[f] = b.proposes(f)
	}
	return out
}

// client returns a client whose calls time out after timeout, and the
// counter of the calls that did.
func (b *windowBed) client(timeout time.Duration) (*Client, *timeoutCounter) {
	local := b.tc.net.Join(fmt.Sprintf("window-client-%d", time.Now().UnixNano()))
	local.SetCallTimeout(timeout)
	ep := &timeoutCounter{Endpoint: local}
	c := NewClient(b.tc.layout, ep, b.tc.coord, 1)
	b.tc.t.Cleanup(c.Close)
	return c, ep
}

// TestProposalWindow pins the leader's one-batch propose window by counting
// messages: a lone write leaves at once, writes sequenced while its batch is
// outstanding send nothing, they leave together, as one more propose per
// follower, when that batch commits, and each propose draws one ack.
func TestProposalWindow(t *testing.T) {
	const timeout = 30 * time.Second
	// A minute's commit period: every propose counted comes from the
	// batcher, none from the stale-propose sweep.
	b := newWindowBed(t, timeout, time.Minute)
	c, ep := b.client(timeout)
	leader := b.tc.nodes[b.leader]
	b.holdAcks()

	// (a) One write: one propose per follower, at once.
	first := c.PutAsync(row0(0), "c", []byte("v"))
	for f, got := range b.waitProposes(nil, 1) {
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("follower %s received %v, want one propose of one record", f, got)
		}
	}

	// (b) Ten more while the first batch's acks are held: all sequenced,
	// none sent.
	const more = 10
	rest := make([]*WriteFuture, more)
	for i := range rest {
		rest[i] = c.PutAsync(row0(1+i), "c", []byte("v"))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := leader.ReplicaStats(b.rangeID)
		if st.Pending == 1+more {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader holds %d pending writes, want %d", st.Pending, 1+more)
		}
		time.Sleep(time.Millisecond)
	}
	for _, f := range b.followers() {
		if got := b.proposes(f); len(got) != 1 {
			t.Fatalf("follower %s received %v while the first batch was outstanding, want only it", f, got)
		}
	}

	// (c) Released: the first batch commits, and the ten leave together.
	b.release()
	if _, err := first.Wait(); err != nil {
		t.Fatalf("first put: %v", err)
	}
	for i, f := range rest {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("put %d: %v", 1+i, err)
		}
	}
	for f, got := range b.waitProposes(nil, 2) {
		if len(got) != 2 || got[1] != more {
			t.Fatalf("follower %s received %v, want [1 %d]", f, got, more)
		}
	}
	// (d) Each propose drew exactly one cumulative ack. A write commits on
	// the first follower's ack; let the second follower's arrive too.
	for _, f := range b.followers() {
		for b.ackCount(f) < len(b.proposes(f)) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := b.ackCount(f); n != len(b.proposes(f)) {
			t.Fatalf("follower %s answered %d proposes with %d acks, want one each", f, len(b.proposes(f)), n)
		}
	}
	if n := ep.timeouts.Load(); n != 0 {
		t.Fatalf("%d calls ended in ErrTimeout, want 0", n)
	}
}

// TestProposalWindowReArmsAcrossTerms: a leader deposed with a batch
// outstanding, then re-elected, sends its new term's first write at once.
// The deposed batch's acks are lost, and the node learns that it committed
// from its successor's commit messages, not from its own commit queue, so
// nothing but the term change resolves its window. The stale-propose sweep
// cannot stand in: it re-sends only writes the leader's force has covered,
// and a write still waiting to be drained has none.
func TestProposalWindowReArmsAcrossTerms(t *testing.T) {
	const timeout = 30 * time.Second
	b := newWindowBed(t, timeout, 50*time.Millisecond)
	c, ep := b.client(timeout)
	home := b.tc.nodes[b.leader]

	// A batch outstanding, then the leader is deposed.
	b.dropAcks(true)
	first := c.PutAsync(row0(0), "c", []byte("v"))
	b.waitProposes(nil, 1)
	if !home.StepDown(b.rangeID) {
		t.Fatal("the leader no longer led the range")
	}
	_, _ = first.Wait() // ambiguous, or committed by a retry at the successor
	b.dropAcks(false)

	// Its successor commits the batch, and the commit messages tell it so.
	// (It sits out one election round only; should it win the range
	// straight back, it is deposed again.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := home.ReplicaStats(b.rangeID)
		if st.Leader != home.ID() && st.Leader != "" && st.Pending == 0 && st.LastCommitted >= st.LastLSN {
			break
		}
		if st.Role == RoleLeader && st.Open {
			home.StepDown(b.rangeID)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never learned its last batch committed: %+v", home.ID(), st)
		}
		time.Sleep(time.Millisecond)
	}
	b.tc.waitAllLeaders()

	// Re-elect it: depose every other leader until it leads again.
	for i := 0; b.tc.leaderOf(b.rangeID) != home; i++ {
		if i == 10 {
			t.Fatalf("%s never led range %d again", home.ID(), b.rangeID)
		}
		b.tc.leaderOf(b.rangeID).StepDown(b.rangeID)
		b.tc.waitAllLeaders()
	}
	b.tc.waitFollowing(b.rangeID)
	before := make(map[string]int)
	for _, f := range b.followers() {
		before[f] = len(b.proposes(f))
	}

	// The new term's first write leaves at once, alone, and commits.
	if _, err := c.Put(row0(1), "c", []byte("w")); err != nil {
		t.Fatalf("first put of the new term: %v", err)
	}
	for f, got := range b.waitProposes(before, 1) {
		if got[before[f]] != 1 {
			t.Fatalf("follower %s received %v (%d before the put), want a propose of one record next", f, got, before[f])
		}
	}
	if n := ep.timeouts.Load(); n != 0 {
		t.Fatalf("%d calls ended in ErrTimeout, want 0", n)
	}
}

// TestProposeBlocksKeepEveryValue: a follower's pending writes and memtable
// keep the values of the writes it applies as slices of the propose payloads
// they arrived in, which the leader's drain loop encodes into 64 KiB blocks
// it hands out once. Distinct values written through more than three blocks
// per range must read back byte for byte from every replica, leader and
// followers alike.
func TestProposeBlocksKeepEveryValue(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	for r := 0; r < tc.layout.NumRanges(); r++ {
		tc.waitFollowing(uint32(r))
	}
	c := tc.client()
	const (
		rows     = 900
		inFlight = 8 // several writes per batch, so batches vary in size
	)
	value := func(i int) []byte {
		v := make([]byte, 700+i%600)
		rand.New(rand.NewSource(int64(i))).Read(v)
		return v
	}
	row := func(i int) string { return row0(i * (1000000 / rows)) }
	proposed := make(map[uint32]int) // bytes of propose records per range
	var futs []*WriteFuture
	for i := 0; i < rows; i++ {
		op := WriteOp{Row: row(i), Cols: []ColWrite{{Col: "c", Value: value(i)}}}
		proposed[tc.layout.RangeOf(op.Row)] += 8 + WriteOpEncodedSize(op)
		futs = append(futs, c.PutAsync(op.Row, "c", op.Cols[0].Value))
		if len(futs) == inFlight || i == rows-1 {
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					t.Fatalf("put: %v", err)
				}
			}
			futs = futs[:0]
		}
	}
	for r, n := range proposed {
		if n <= 3*proposeBlock {
			t.Fatalf("range %d proposed %d bytes, want more than three %d-byte blocks", r, n, proposeBlock)
		}
	}
	// Quiesce: every replica has applied everything its leader logged.
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
	ep := tc.net.Join("probe")
	for name := range tc.nodes {
		for i := 0; i < rows; i++ {
			rw := row(i)
			resp, err := ep.Call(transportMsgGet(name, tc.layout.RangeOf(rw), rw, "c"))
			if err != nil {
				t.Fatalf("timeline get of %s at %s: %v", rw, name, err)
			}
			res, err := decodeGetResp(resp.Payload)
			if err != nil || res.Status != StatusOK {
				t.Fatalf("timeline get of %s at %s: status %d, %v", rw, name, res.Status, err)
			}
			if !bytes.Equal(res.Value, value(i)) {
				t.Fatalf("%s at %s reads %d bytes that differ from the %d written", rw, name, len(res.Value), len(value(i)))
			}
		}
	}
}

// TestIdleLeaderAppendsNothing: once a leader has recorded its commit point,
// it appends nothing to its log while the commit point stays put. The
// window is K commit periods, counted in the commit messages every leader
// sends each period, not in wall-clock time.
func TestIdleLeaderAppendsNothing(t *testing.T) {
	var commitMsgs sync.Map // node → *atomic.Int64, MsgCommit sent
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		sent := new(atomic.Int64)
		commitMsgs.Store(name, sent)
		return proposeTap{ep, func(m transport.Message) {
			if m.Kind == MsgCommit {
				sent.Add(1)
			}
		}}
	}})
	tc.waitAllLeaders()
	c := tc.client()
	leaders := make(map[string]int64) // leader → ranges it leads
	for r := uint32(0); r < uint32(tc.layout.NumRanges()); r++ {
		leaders[tc.waitFollowing(r)]++
		if _, err := c.Put(rowInRange(tc.layout, r), "c", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	periods := func(k int64) {
		t.Helper()
		start := make(map[string]int64)
		for name := range leaders {
			v, _ := commitMsgs.Load(name)
			start[name] = v.(*atomic.Int64).Load()
		}
		deadline := time.Now().Add(10 * time.Second)
		for name, led := range leaders {
			v, _ := commitMsgs.Load(name)
			// A period is one message to each of two peers per range led.
			for v.(*atomic.Int64).Load() < start[name]+2*k*led {
				if time.Now().After(deadline) {
					t.Fatalf("%s sent no commit messages", name)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	periods(3) // every leader records the commit point of the put

	const k = 20
	before := make(map[string]int64)
	for name := range leaders {
		before[name], _ = tc.nodes[name].log.Stats()
	}
	periods(k)
	for name := range leaders {
		if after, _ := tc.nodes[name].log.Stats(); after != before[name] {
			t.Errorf("idle leader %s appended %d records in %d commit periods, want 0", name, after-before[name], k)
		}
	}
}
