package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

// queueModel is a brute-force commit queue: a list of pending writes in no
// particular order, answering every question by scanning it.
type queueModel struct {
	pending []*pendingWrite
	forced  map[*pendingWrite]bool
	acked   map[string]wal.LSN
}

func (m *queueModel) sorted() []*pendingWrite {
	out := slices.Clone(m.pending)
	slices.SortFunc(out, func(a, b *pendingWrite) int { return cmp.Compare(a.lsn, b.lsn) })
	return out
}

func (m *queueModel) find(lsn wal.LSN) *pendingWrite {
	if i := slices.IndexFunc(m.pending, func(p *pendingWrite) bool { return p.lsn == lsn }); i >= 0 {
		return m.pending[i]
	}
	return nil
}

func (m *queueModel) has(lsn wal.LSN) bool { return m.find(lsn) != nil }

func (m *queueModel) del(lsn wal.LSN) {
	m.pending = slices.DeleteFunc(m.pending, func(p *pendingWrite) bool { return p.lsn == lsn })
}

func (m *queueModel) latest(k kv.Key) (wal.LSN, bool) {
	var newest wal.LSN
	for _, p := range m.pending {
		touches := p.op.Row == k.Row && slices.ContainsFunc(p.op.Cols, func(c ColWrite) bool { return c.Col == k.Col })
		if touches && p.lsn > newest {
			newest = p.lsn
		}
	}
	return newest, newest != 0
}

func (m *queueModel) rowIn(low, high string) bool {
	return slices.ContainsFunc(m.pending, func(p *pendingWrite) bool { return keyInRange(p.op.Row, low, high) })
}

// committable pops the model's committable prefix, as popCommittable's
// doc describes it.
func (m *queueModel) committable(quorum int, peers []string) []wal.LSN {
	var out []wal.LSN
	for _, p := range m.sorted() {
		acks := 0
		for peer, through := range m.acked {
			if through >= p.lsn && (peers == nil || slices.Contains(peers, peer)) {
				acks++
			}
		}
		if !m.forced[p] || 1+acks < quorum {
			break
		}
		out = append(out, p.lsn)
		m.del(p.lsn)
	}
	return out
}

func lsnsOf(ps []*pendingWrite) []wal.LSN {
	out := make([]wal.LSN, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.lsn)
	}
	return out
}

// TestCommitQueueMatchesModel drives the commit queue and a brute-force model
// through seeded random sequences of in-order and out-of-order adds, removes
// of arbitrary LSNs, popThrough, popCommittable under random forces and
// acks, and drain, and checks after every step that the newest pending write
// per key, hasPendingRowIn, len and head agree.
func TestCommitQueueMatchesModel(t *testing.T) {
	rows := []string{"a", "b", "c", "d"}
	cols := []string{"x", "y", "z"}
	peers := []string{"f1", "f2", "f3"}
	var keys []kv.Key
	for _, r := range rows {
		for _, c := range cols {
			keys = append(keys, kv.Key{Row: r, Col: c})
		}
	}
	bounds := append([]string{""}, "a", "b", "bb", "c", "d", "e")
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newCommitQueue()
		m := &queueModel{forced: map[*pendingWrite]bool{}, acked: map[string]wal.LSN{}}
		var next uint64 // highest sequence handed out
		randLSN := func() wal.LSN { return wal.MakeLSN(1, uint64(rng.Intn(int(next)+3))+1) }
		newWrite := func(lsn wal.LSN) *pendingWrite {
			op := WriteOp{Row: rows[rng.Intn(len(rows))]}
			for _, c := range rng.Perm(len(cols))[:1+rng.Intn(2)] {
				op.Cols = append(op.Cols, ColWrite{Col: cols[c]})
			}
			return &pendingWrite{lsn: lsn, op: op}
		}
		for step := 0; step < 300; step++ {
			var what string
			switch op := rng.Intn(10); {
			case op < 4: // add in LSN order, as the write path does
				next++
				p := newWrite(wal.MakeLSN(1, next))
				what = fmt.Sprintf("add %v", p.lsn)
				if !q.add(p) {
					t.Fatalf("seed %d step %d: %s rejected", seed, step, what)
				}
				m.pending = append(m.pending, p)
			case op == 4: // add out of order, as local recovery may
				lsn := randLSN()
				what = fmt.Sprintf("add out of order %v", lsn)
				if got, want := q.add(newWrite(lsn)), !m.has(lsn); got != want {
					t.Fatalf("seed %d step %d: %s = %v, want %v", seed, step, what, got, want)
				} else if got {
					m.pending = append(m.pending, q.byLSN[lsn])
					next = max(next, lsn.Seq())
				}
			case op == 5:
				lsn := randLSN()
				what = fmt.Sprintf("remove %v", lsn)
				if got, want := q.remove(lsn), m.has(lsn); got != want {
					t.Fatalf("seed %d step %d: %s = %v, want %v", seed, step, what, got, want)
				}
				m.del(lsn)
			case op == 6:
				through := randLSN()
				what = fmt.Sprintf("popThrough %v", through)
				var want []wal.LSN
				for _, p := range m.sorted() {
					if p.lsn <= through {
						want = append(want, p.lsn)
						m.del(p.lsn)
					}
				}
				if got := lsnsOf(q.popThrough(through, nil)); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: %s = %v, want %v", seed, step, what, got, want)
				}
			case op < 9:
				for i := rng.Intn(3); i > 0; i-- {
					lsn := randLSN()
					q.markForced(lsn)
					if p := m.find(lsn); p != nil {
						m.forced[p] = true
					}
				}
				for i := rng.Intn(2); i > 0; i-- {
					peer, lsn := peers[rng.Intn(len(peers))], randLSN()
					q.markAckedThrough(peer, lsn)
					m.acked[peer] = max(m.acked[peer], lsn)
				}
				quorum := 2 + rng.Intn(2)
				var allowed []string
				if rng.Intn(2) == 0 {
					allowed = peers[:1+rng.Intn(len(peers))]
				}
				what = fmt.Sprintf("popCommittable(%d, %v)", quorum, allowed)
				want := m.committable(quorum, allowed)
				if got := lsnsOf(q.popCommittable(quorum, allowed, nil)); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: %s = %v, want %v", seed, step, what, got, want)
				}
			default:
				if rng.Intn(4) != 0 {
					continue
				}
				what = "drain"
				want := lsnsOf(m.sorted())
				if got := lsnsOf(q.drain()); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: drain = %v, want %v", seed, step, got, want)
				}
				m.pending, m.acked = nil, map[string]wal.LSN{}
			}

			for _, k := range keys {
				p, ok := q.latestPending(k)
				want, wantOK := m.latest(k)
				if ok != wantOK || (ok && p.lsn != want) {
					t.Fatalf("seed %d step %d (after %s): latestPending(%v) = %v, want %v, %v", seed, step, what, k, p, want, wantOK)
				}
			}
			for i := 0; i < 4; i++ {
				low, high := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
				if got, want := q.hasPendingRowIn(low, high), m.rowIn(low, high); got != want {
					t.Fatalf("seed %d step %d (after %s): hasPendingRowIn(%q, %q) = %v, want %v", seed, step, what, low, high, got, want)
				}
			}
			sorted := m.sorted()
			if q.len() != len(sorted) {
				t.Fatalf("seed %d step %d (after %s): len = %d, want %d", seed, step, what, q.len(), len(sorted))
			}
			head, ok := q.head()
			if ok != (len(sorted) > 0) || (ok && head != sorted[0].lsn) {
				t.Fatalf("seed %d step %d (after %s): head = %v, %v; want %v", seed, step, what, head, ok, lsnsOf(sorted))
			}
		}
	}
}

// TestCommitQueueAllocs: sequencing, forcing, acking and committing a write
// through the queue allocates nothing once the queue's maps and order slice
// have their steady-state size.
func TestCommitQueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	q := newCommitQueue()
	p := pw(1, "row", "col")
	peers := []string{"f1", "f2"}
	var buf [4]*pendingWrite
	popped := 0
	allocs := testing.AllocsPerRun(1000, func() {
		q.add(p)
		q.markForced(p.lsn)
		q.markAckedThrough("f1", p.lsn)
		popped += len(q.popCommittable(2, peers, buf[:0]))
	})
	if popped != 1001 {
		t.Fatalf("committed %d writes in 1001 runs", popped)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per add+markForced+markAckedThrough+popCommittable, want 0", allocs)
	}
}
