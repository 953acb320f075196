package host

import (
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
