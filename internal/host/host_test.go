package host

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestLeaderOfReusesSession pins that LeaderOf, which sits in every polling
// loop of the executor and the balancer, reads through the cluster's
// long-lived coordination session rather than opening one per call — and
// that it reconnects once that session has expired.
func TestLeaderOfReusesSession(t *testing.T) {
	sc, err := New(Options{Nodes: 3, SessionTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	r := sc.CurrentLayout().RangeIDs()[0]

	probe := sc.Coord.Connect()
	before := probe.ID()
	probe.Close()
	for i := 0; i < 100; i++ {
		if sc.LeaderOf(r) == "" {
			t.Fatalf("call %d: range %d has no leader", i, r)
		}
	}
	probe = sc.Coord.Connect()
	opened := probe.ID() - before - 1
	probe.Close()
	if opened != 0 {
		t.Fatalf("100 LeaderOf calls opened %d sessions, want 0", opened)
	}

	// Idle past the session timeout: nothing heartbeats the cluster's
	// session, so it expires and the next read must replace it.
	sc.layoutCacheMu.Lock()
	sess := sc.layoutSess
	sc.layoutCacheMu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); !sess.Closed(); {
		if time.Now().After(deadline) {
			t.Fatal("the idle session never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sc.LeaderOf(r) == "" {
		t.Fatalf("range %d has no leader after the session expired", r)
	}
}

// TestTransferLeadershipNotTaken: a transfer toward a member that cannot win
// the election — cut off from its cohort while the range takes writes, so its
// log is behind — leaves another node leading, and TransferLeadership reports
// ErrTransferNotTaken naming that node, which the balancer records as the
// transfer's error.
func TestTransferLeadershipNotTaken(t *testing.T) {
	sc, err := New(Options{Nodes: 3, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	l := sc.CurrentLayout()
	id := l.RangeIDs()[0]
	leader := sc.LeaderOf(id)
	to := ""
	for _, m := range l.Cohort(id) {
		if m != leader {
			to = m
			break
		}
	}
	sc.Isolate(to)
	defer sc.HealAll()
	cli := sc.NewClient()
	for i, puts := 0, 0; puts < 20; i++ {
		if i == sc.KeyDomain() {
			t.Fatalf("only %d keys of range %d in the key domain", puts, id)
		}
		if key := sc.Key(i); l.RangeOf(key) == id {
			if _, err := cli.Put(key, "v", []byte("x")); err != nil {
				t.Fatalf("put %s: %v", key, err)
			}
			puts++
		}
	}
	err = sc.TransferLeadership(id, to, 30*time.Second)
	if !errors.Is(err, ErrTransferNotTaken) {
		t.Fatalf("transfer of range %d to %s, whose log is behind: err = %v, want ErrTransferNotTaken", id, to, err)
	}
	now := sc.LeaderOf(id)
	if now == to || now == "" || !strings.Contains(err.Error(), now) {
		t.Fatalf("range %d led by %q after the transfer; the error says %q", id, now, err)
	}
}
