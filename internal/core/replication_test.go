package core

import (
	"errors"
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
// MsgAckBatch messages sent.
type proposeCounter struct {
	mu       sync.Mutex
	proposes []int // record count of each propose message, all nodes
	acks     int
}

type countingEndpoint struct {
	transport.Endpoint
	c *proposeCounter
}

func (e countingEndpoint) Send(m transport.Message) error {
	switch m.Kind {
	case MsgProposeBatch:
		if b, err := decodeProposeBatch(m.Payload); err == nil {
			e.c.mu.Lock()
			e.c.proposes = append(e.c.proposes, len(b.Recs))
			e.c.mu.Unlock()
		}
	case MsgAckBatch:
		e.c.mu.Lock()
		e.c.acks++
		e.c.mu.Unlock()
	}
	return e.Endpoint.Send(m)
}

func (c *proposeCounter) snapshot() (proposes []int, acks int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.proposes...), c.acks
}

// TestProposalBatchingCap pins what DisableProposalBatching means on the one
// replication path: with it set every propose message carries exactly one
// write and draws exactly one cumulative ack; without it concurrently
// sequenced writes share propose messages.
func TestProposalBatchingCap(t *testing.T) {
	const writes = 64
	run := func(t *testing.T, disable bool) (proposes []int, acks int) {
		counter := &proposeCounter{}
		tc := newHookedTestCluster(t, 3, func(cfg *Config) {
			cfg.DisableProposalBatching = disable
			// No retransmissions (they start at two commit periods): every
			// propose counted below is a first transmission.
			cfg.CommitPeriod = time.Second
		}, testHooks{
			// A force that takes a moment, so writes sequenced meanwhile
			// queue up behind the drainer.
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
		deadline := time.Now().Add(5 * time.Second)
		for {
			proposes, acks = counter.snapshot()
			if acks == len(proposes) || time.Now().After(deadline) {
				return proposes, acks
			}
			time.Sleep(time.Millisecond)
		}
	}

	t.Run("capped", func(t *testing.T) {
		proposes, acks := run(t, true)
		for _, n := range proposes {
			if n != 1 {
				t.Fatalf("a propose message carried %d records, want exactly 1 (all: %v)", n, proposes)
			}
		}
		// One message per write per follower, one ack per message.
		if len(proposes) != 2*writes || acks != len(proposes) {
			t.Fatalf("%d propose messages and %d acks for %d writes to 2 followers", len(proposes), acks, writes)
		}
	})
	t.Run("batched", func(t *testing.T) {
		proposes, acks := run(t, false)
		most := 0
		for _, n := range proposes {
			most = max(most, n)
		}
		if most < 2 {
			t.Fatalf("no propose message carried more than one record: %v", proposes)
		}
		if acks != len(proposes) {
			t.Fatalf("%d propose messages drew %d acks", len(proposes), acks)
		}
	})
}

// TestPiggybackedCommitsAdvanceFollowers pins App. D.1's piggyback
// (Config.PiggybackCommits): with no commit message due for a minute, a
// follower learns that a write committed from the next write's propose, and
// without the option it does not.
func TestPiggybackedCommitsAdvanceFollowers(t *testing.T) {
	run := func(t *testing.T, piggyback bool) {
		tc := newTestCluster(t, 3, func(cfg *Config) {
			cfg.CommitPeriod = time.Minute
			cfg.PiggybackCommits = piggyback
		})
		tc.waitAllLeaders()
		rangeID := tc.layout.RangeOf(row0(1))
		leader := tc.waitFollowing(rangeID)
		c := tc.client()
		first, err := c.Put(row0(1), "c", []byte("a"))
		if err != nil {
			t.Fatal(err)
		}
		second, err := c.Put(row0(2), "c", []byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		// Once a follower holds the second write, it has seen every propose
		// that could carry the first write's commit.
		for _, name := range tc.layout.Cohort(rangeID) {
			if name == leader {
				continue
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				st, _ := tc.nodes[name].ReplicaStats(rangeID)
				learned := st.LastCommitted >= wal.LSN(first)
				if st.LastLSN >= wal.LSN(second) && learned == piggyback {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("follower %s at lst %s cmt %s: want lst >= %s, and cmt >= %s to be %v",
						name, st.LastLSN, st.LastCommitted, wal.LSN(second), wal.LSN(first), piggyback)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	t.Run("off", func(t *testing.T) { run(t, false) })
	t.Run("on", func(t *testing.T) { run(t, true) })
}

// waitFollowing waits until every follower of rangeID has left
// RoleRecovering and follows the range's current leader, whose id it returns.
func (tc *testCluster) waitFollowing(rangeID uint32) string {
	tc.t.Helper()
	leader := tc.leaderOf(rangeID).ID()
	for _, name := range tc.layout.Cohort(rangeID) {
		for name != leader {
			st, _ := tc.nodes[name].ReplicaStats(rangeID)
			if st.Role != RoleRecovering && st.Leader == leader {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	return leader
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
// instead of hanging until the WriteTimeout sweep.
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
	leader := tc.leaderOf(rangeID)
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
}

// inboundHook is an endpoint decorator that shows every inbound message to
// saw before the node's handler gets it.
type inboundHook struct {
	transport.Endpoint
	saw func(m transport.Message)
}

func (e inboundHook) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(m transport.Message) {
		e.saw(m)
		h(m)
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
			return inboundHook{ep, func(m transport.Message) {
				if m.Kind != MsgProposeBatch {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if leader != "" && m.Cohort == rangeID && !reached[name] {
					reached[name] = true
					if len(reached) == 2 {
						close(proposed)
					}
				}
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
