package host

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// startCluster starts a cluster tuned for fast reconfiguration tests and
// waits for every range to open.
func startCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	opts.CommitPeriod = 5 * time.Millisecond
	opts.WriteTimeout = 2 * time.Second
	sc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Stop)
	if err := sc.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	return sc
}

// strideKeys returns n keys evenly spread over the cluster's key domain, so
// every range sees traffic.
func strideKeys(sc *Cluster, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = sc.Key(i * (sc.KeyDomain() / n))
	}
	return keys
}

// TestSplitRangeLive splits a range while data is in it and verifies the
// moved rows stay readable and writable through the new range.
func TestSplitRangeLive(t *testing.T) {
	sc := startCluster(t, Options{Nodes: 3})
	c := sc.NewClient()

	keys := strideKeys(sc, 30)
	for i, k := range keys {
		if _, err := c.Put(k, "v", []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("preload %s: %v", k, err)
		}
	}

	l := sc.CurrentLayout()
	target := l.RangeIDs()[0]
	low, high := l.Bounds(target)
	key := sc.midKey(low, high)
	newID, err := sc.SplitRange(target, key, 30*time.Second)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	nl := sc.CurrentLayout()
	if nl.Version() <= l.Version() {
		t.Fatalf("layout version did not advance: %d -> %d", l.Version(), nl.Version())
	}
	if got := nl.RangeOf(key); got != newID {
		t.Fatalf("split key routes to range %d, want new range %d", got, newID)
	}

	// Every preloaded key must still be readable with its value, through
	// whichever range now owns it (the stale client refreshes on
	// StatusWrongLayout replies).
	for i, k := range keys {
		v, _, err := c.Get(k, "v", true)
		if err != nil {
			t.Fatalf("read %s after split: %v", k, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("read %s after split: got %q want %q", k, v, want)
		}
	}
	// And writable: a write to a moved row must land in the new range.
	if _, err := c.Put(key, "v", []byte("post-split")); err != nil {
		t.Fatalf("write to split key: %v", err)
	}
	if v, _, err := c.Get(key, "v", true); err != nil || string(v) != "post-split" {
		t.Fatalf("read back split key: %q %v", v, err)
	}
}

// TestFileBackedAddNodeAndRebalance runs the reconfiguration executor over
// file stores, as a deployment would: a 3-node cluster under Dir takes 200
// rows, grows to 4 nodes and rebalances; the new node's stores must appear
// under Dir, every row must read back strongly, and the published layout
// must hold its invariants.
func TestFileBackedAddNodeAndRebalance(t *testing.T) {
	dir := t.TempDir()
	sc := startCluster(t, Options{Nodes: 3, Dir: dir})
	c := sc.NewClient()

	keys := strideKeys(sc, 200)
	for i, k := range keys {
		if _, err := c.Put(k, "v", []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("preload %s: %v", k, err)
		}
	}

	added, err := sc.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, added, "log")); err != nil {
		t.Fatalf("added node keeps no log under Dir: %v", err)
	}
	if err := sc.Rebalance(120 * time.Second); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	l := sc.CurrentLayout()
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := len(l.Nodes()); got != 4 {
		t.Fatalf("nodes after rebalance: %d want 4", got)
	}
	if len(l.RangesOf(added)) == 0 {
		t.Fatalf("node %s serves no ranges after rebalance", added)
	}
	for i, k := range keys {
		v, _, err := c.Get(k, "v", true)
		if err != nil {
			t.Fatalf("read %s after rebalance: %v", k, err)
		}
		if want := fmt.Sprintf("val-%d", i); string(v) != want {
			t.Fatalf("read %s after rebalance: got %q want %q", k, v, want)
		}
	}
}
