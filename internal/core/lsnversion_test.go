package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spinnaker/internal/kv"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// A column's version is the LSN of the write that produced it (§3's
// datastore-assigned version, §5's LSN): every cell on every replica must
// carry Version == uint64(LSN), whichever path put it there — the leader's
// commit, a follower's apply, local recovery, entry or snapshot catch-up.

// checkCellsVersionIsLSN scans every live node's engine for range r and
// fails on any cell whose version is not its LSN; it returns the number of
// cells checked.
func checkCellsVersionIsLSN(t *testing.T, tc *testCluster, r uint32) int {
	t.Helper()
	cells := 0
	for name, n := range tc.nodes {
		rep := n.getReplica(r)
		if rep == nil {
			continue
		}
		for _, e := range rep.engine.EntriesSince(0) {
			cells++
			if e.Cell.Version != uint64(e.Cell.LSN) {
				t.Errorf("%s: cell %v has version %d, LSN %s (%d)", name, e.Key, e.Cell.Version, e.Cell.LSN, uint64(e.Cell.LSN))
			}
		}
	}
	return cells
}

// TestCellVersionIsLSN drives puts, deletes, conditional and multi-column
// writes over lossy, duplicating, reordering node links while one follower
// is partitioned away (entry catch-up on heal) and another crashes and
// restarts (local recovery), then checks every replica's cells and every
// version a client was given.
func TestCellVersionIsLSN(t *testing.T) {
	// A catch-up call into the partition waits out its call timeout before
	// the healed follower asks again; keep that short.
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(_ string, ep transport.Endpoint) transport.Endpoint {
		ep.(*transport.LocalEndpoint).SetCallTimeout(100 * time.Millisecond)
		return ep
	}})
	tc.net.SetFaultSeed(7)
	names := []string{"n0", "n1", "n2"}
	for _, a := range names {
		for _, b := range names {
			if a != b {
				tc.net.SetLinkFaults(a, b, transport.LinkFaults{
					DropProb: 0.02, DupProb: 0.02, ReorderProb: 0.05, Jitter: time.Millisecond,
				})
			}
		}
	}
	tc.waitAllLeaders()
	c := tc.client()
	r := tc.layout.RangeOf(row0(0))
	leader := tc.leaderOf(r).ID()
	var followers []string
	for _, name := range tc.layout.Cohort(r) {
		if name != leader {
			followers = append(followers, name)
		}
	}

	acked := make(map[kv.Key]uint64) // the version each cell's last acked write returned
	write := func(i int) {
		row := row0(i % 37) // coprime with the five kinds: every row sees each
		switch i % 5 {
		case 0, 1:
			v, err := c.Put(row, "a", []byte(fmt.Sprint("v", i)))
			if err == nil {
				acked[kv.Key{Row: row, Col: "a"}] = v
			}
		case 2:
			vs, err := c.MultiPut(row, []Column{{Col: "a", Value: []byte("m")}, {Col: "b", Value: []byte("n")}})
			if err == nil {
				if len(vs) != 2 || vs[0] != vs[1] {
					t.Fatalf("MultiPut versions %v, want one LSN per column", vs)
				}
				acked[kv.Key{Row: row, Col: "a"}], acked[kv.Key{Row: row, Col: "b"}] = vs[0], vs[1]
			}
		case 3:
			cur, ok := acked[kv.Key{Row: row, Col: "a"}]
			if !ok {
				return
			}
			v, err := c.ConditionalPut(row, "a", []byte("cas"), cur)
			if err == nil {
				acked[kv.Key{Row: row, Col: "a"}] = v
			} else if !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("ConditionalPut: %v", err)
			}
		case 4:
			if err := c.Delete(row, "b"); err == nil {
				delete(acked, kv.Key{Row: row, Col: "b"})
			}
		}
	}
	for i := 0; i < 60; i++ {
		write(i)
	}
	tc.net.Partition(leader, followers[0])
	for i := 60; i < 120; i++ {
		write(i)
	}
	tc.net.Heal(leader, followers[0])
	tc.crashNode(followers[1])
	for i := 120; i < 160; i++ {
		write(i)
	}
	tc.restartNode(followers[1])
	for i := 160; i < 200; i++ {
		write(i)
	}

	// Every version a client was given is the LSN its cell carries.
	for key, v := range acked {
		_, got, err := c.Get(key.Row, key.Col, true)
		if err != nil {
			t.Fatalf("Get %s: %v", key, err)
		}
		if got != v {
			t.Errorf("%s: Get version %d, the acked write returned %d", key, got, v)
		}
	}

	// Wait until every replica has applied the leader's commit point, then
	// check every cell.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lead, _ := tc.leaderOf(r).ReplicaStats(r)
		caught := 0
		for _, n := range tc.nodes {
			if st, ok := n.ReplicaStats(r); ok && st.LastCommitted >= lead.LastCommitted {
				caught++
			}
		}
		if caught == len(tc.nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never caught up to %s", lead.LastCommitted)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cells := checkCellsVersionIsLSN(t, tc, r); cells == 0 {
		t.Fatal("no cells checked")
	} else {
		t.Logf("%d cells on %d replicas: version == LSN", cells, len(tc.nodes))
	}
}

// TestLeaderLogsAndProposesClientBytes: the leader's WAL record for a
// client write and the write's record in the leader's propose batch are the
// MsgWrite payload byte for byte — the leader neither decodes-and-re-encodes
// nor stamps a version into the op.
func TestLeaderLogsAndProposesClientBytes(t *testing.T) {
	var (
		mu       sync.Mutex
		rangeID  = ^uint32(0)
		writes   [][]byte               // MsgWrite payloads the range's leader received
		proposed = map[wal.LSN][]byte{} // propose records the leader sent
	)
	tc := newHookedTestCluster(t, 3, nil, testHooks{endpoint: func(name string, ep transport.Endpoint) transport.Endpoint {
		return proposeTap{inboundHook{ep, func(m transport.Message) bool {
			mu.Lock()
			if m.Kind == MsgWrite && m.Cohort == rangeID {
				writes = append(writes, append([]byte(nil), m.Payload...))
			}
			mu.Unlock()
			return true
		}}, func(m transport.Message) {
			if m.Kind != MsgProposeBatch {
				return
			}
			b, err := decodeProposeBatch(m.Payload, nil)
			if err != nil {
				t.Errorf("leader sent an undecodable propose: %v", err)
				return
			}
			mu.Lock()
			if m.Cohort == rangeID {
				for i := range b {
					proposed[b[i].lsn] = append([]byte(nil), b[i].raw...)
				}
			}
			mu.Unlock()
		}}
	}})
	tc.waitAllLeaders()
	r := tc.layout.RangeOf(row0(1))
	leader := tc.waitFollowing(r)
	mu.Lock()
	rangeID = r
	mu.Unlock()

	c := tc.client()
	ops := []WriteOp{
		{Row: row0(1), Cols: []ColWrite{{Col: "c", Value: bytes.Repeat([]byte("x"), 300)}}},
		{Row: row0(2), Cols: []ColWrite{{Col: "a", Value: []byte("1")}, {Col: "b", Delete: true}}},
		{Row: row0(1), Cols: []ColWrite{{Col: "d", Value: []byte("new"), Cond: true}}},
	}
	var lsns []wal.LSN
	for _, op := range ops {
		v, err := c.write(op)
		if err != nil {
			t.Fatalf("write %+v: %v", op, err)
		}
		lsns = append(lsns, wal.LSN(v))
	}

	logged := map[wal.LSN][]byte{}
	if err := tc.nodes[leader].log.ScanCohort(r, func(rec wal.Record) error {
		if rec.Type == wal.RecWrite {
			logged[rec.LSN] = rec.Payload
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(writes) != len(ops) {
		t.Fatalf("the leader received %d writes, want %d", len(writes), len(ops))
	}
	for i, op := range ops {
		if want := EncodeWriteOp(nil, op); !bytes.Equal(writes[i], want) {
			t.Fatalf("write %d: the client sent %x, want %x", i, writes[i], want)
		}
		if !bytes.Equal(logged[lsns[i]], writes[i]) {
			t.Errorf("write %d: WAL record %x, MsgWrite payload %x", i, logged[lsns[i]], writes[i])
		}
		if !bytes.Equal(proposed[lsns[i]], writes[i]) {
			t.Errorf("write %d: propose record %x, MsgWrite payload %x", i, proposed[lsns[i]], writes[i])
		}
	}
}

// proposeTap shows every message the wrapped endpoint sends to sent.
type proposeTap struct {
	transport.Endpoint
	sent func(m transport.Message)
}

func (e proposeTap) Send(m transport.Message) error {
	e.sent(m)
	return e.Endpoint.Send(m)
}
