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
		rangeID := tc.layout.RangeOf(row0(0))
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

// failingStore is a wal.SegmentStore decorator whose devices fail Force on
// demand.
type failingStore struct {
	wal.SegmentStore
	fail atomic.Bool
}

type failingDevice struct {
	wal.Device
	s *failingStore
}

var errInjectedForce = errors.New("injected force failure")

func (s *failingStore) wrap(d wal.Device, err error) (wal.Device, error) {
	if err != nil {
		return nil, err
	}
	return failingDevice{d, s}, nil
}

func (s *failingStore) Open(id uint64) (wal.Device, error) { return s.wrap(s.SegmentStore.Open(id)) }
func (s *failingStore) Create(id uint64) (wal.Device, error) {
	return s.wrap(s.SegmentStore.Create(id))
}

func (d failingDevice) Force() error {
	if d.s.fail.Load() {
		return errInjectedForce
	}
	return d.Device.Force()
}

// TestLeaderForceErrorAnswersAmbiguous: when the leader's log force fails,
// the clients of that batch are told StatusAmbiguous at once — the writes
// are sequenced and proposed, so they stay queued for a takeover to commit —
// instead of hanging until the WriteTimeout sweep.
func TestLeaderForceErrorAnswersAmbiguous(t *testing.T) {
	const writeTimeout = 30 * time.Second
	failing := make(map[string]*failingStore)
	tc := newHookedTestCluster(t, 3, func(cfg *Config) {
		cfg.WriteTimeout = writeTimeout
	}, testHooks{stores: func(name string) *Stores {
		s := NewMemStores(wal.DeviceInstant)
		failing[name] = &failingStore{SegmentStore: s.Segments}
		s.Segments = failing[name]
		return s
	}})
	tc.waitAllLeaders()

	rangeID := tc.layout.RangeOf(row0(0))
	leader := tc.leaderOf(rangeID)
	failing[leader.ID()].fail.Store(true)

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
