package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/lin"
)

// reconfigCluster starts a 3-node cluster tuned for fast reconfiguration
// tests.
func reconfigCluster(t *testing.T) *SpinnakerCluster {
	t.Helper()
	sc, err := NewSpinnakerCluster(Options{
		Nodes:        3,
		CommitPeriod: 5 * time.Millisecond,
		WriteTimeout: 2 * time.Second,
	})
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
func strideKeys(sc *SpinnakerCluster, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = sc.Key(i * (sc.KeyDomain() / n))
	}
	return keys
}

// TestMoveRangeRouting moves a range's membership one node over and checks
// that a client created before the move (stale layout, stale leader cache)
// still routes: the old member answers StatusWrongLayout, the client
// refreshes, and operations land on the new cohort.
func TestMoveRangeRouting(t *testing.T) {
	sc := reconfigCluster(t)
	staleClient := sc.NewClient()

	l := sc.CurrentLayout()
	target := l.RangeIDs()[0]
	low, _ := l.Bounds(target)
	key := low
	if key == "" {
		key = sc.Key(1)
	}
	if _, err := staleClient.Put(key, "v", []byte("before")); err != nil {
		t.Fatal(err)
	}

	// Grow the ring and move the range's whole cohort off its current
	// members, one member at a time.
	newNode, err := sc.AddNode("")
	if err != nil {
		t.Fatal(err)
	}
	from := l.Cohort(target)[0]
	if err := sc.MoveRange(target, from, newNode, 60*time.Second); err != nil {
		t.Fatalf("move: %v", err)
	}
	nl := sc.CurrentLayout()
	if !nl.CohortContains(target, newNode) || nl.CohortContains(target, from) {
		t.Fatalf("cohort after move: %v", nl.Cohort(target))
	}

	// The stale client must still read and write the key.
	if v, _, err := staleClient.Get(key, "v", true); err != nil || string(v) != "before" {
		t.Fatalf("stale client read after move: %q %v", v, err)
	}
	if _, err := staleClient.Put(key, "v", []byte("after")); err != nil {
		t.Fatalf("stale client write after move: %v", err)
	}
	if v, _, err := staleClient.Get(key, "v", true); err != nil || string(v) != "after" {
		t.Fatalf("stale client read-back after move: %q %v", v, err)
	}
}

// TestAddNodeAndRebalance grows a 3-node cluster to 5, rebalances, and
// verifies the data survives, the new nodes carry ranges, and leadership
// spreads onto them.
func TestAddNodeAndRebalance(t *testing.T) {
	sc := reconfigCluster(t)
	c := sc.NewClient()

	keys := strideKeys(sc, 40)
	for i, k := range keys {
		if _, err := c.Put(k, "v", []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatalf("preload %s: %v", k, err)
		}
	}

	for i := 0; i < 2; i++ {
		if _, err := sc.AddNode(""); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Rebalance(120 * time.Second); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	l := sc.CurrentLayout()
	if got, want := len(l.Nodes()), 5; got != want {
		t.Fatalf("nodes after rebalance: %d want %d", got, want)
	}
	if l.NumRanges() < 5 {
		t.Fatalf("ranges after rebalance: %d want >= 5", l.NumRanges())
	}
	served := make(map[string]int)
	for _, id := range l.RangeIDs() {
		for _, n := range l.Cohort(id) {
			served[n]++
		}
	}
	for _, n := range l.Nodes() {
		if served[n] == 0 {
			t.Errorf("node %s serves no ranges after rebalance", n)
		}
	}
	leaders := make(map[string]bool)
	for _, id := range l.RangeIDs() {
		leaders[sc.LeaderOf(id)] = true
	}
	if len(leaders) < 4 {
		t.Errorf("leadership concentrated on %d nodes after rebalance: %v", len(leaders), leaders)
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

// TestRebalanceUnderWorkload is the tentpole acceptance check: a
// strict-write multi-writer workload runs while the cluster scales from 3
// to 5 nodes and rebalances, and the full operation history must stay
// per-key linearizable.
func TestRebalanceUnderWorkload(t *testing.T) {
	sc, err := NewSpinnakerCluster(Options{
		Nodes:        3,
		CommitPeriod: 5 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	rec := lin.NewRecorder()
	keys := strideKeys(sc, 5)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writers := 4
	if testing.Short() {
		writers = 2
	}
	for w := 0; w < writers; w++ {
		c := sc.NewClient()
		c.SetStrictWrites(true)
		wg.Add(1)
		go func(w int, c *core.Client) {
			defer wg.Done()
			runWriter(c, rec, keys, w, 42, stop)
		}(w, c)
	}

	for i := 0; i < 2; i++ {
		id, err := sc.AddNode("")
		if err != nil {
			t.Fatal(err)
		}
		rec.Note("reconfig: add %s", id)
	}
	if err := sc.Rebalance(120 * time.Second); err != nil {
		t.Fatalf("rebalance under workload: %v", err)
	}
	rec.Note("reconfig: rebalanced to %d ranges", sc.CurrentLayout().NumRanges())
	time.Sleep(300 * time.Millisecond) // observe the rebalanced cluster
	close(stop)
	wg.Wait()

	res := rec.Check(120 * time.Second)
	if res.Err != nil {
		t.Fatalf("linearizability check undecided: %v", res.Err)
	}
	if !res.Linearizable {
		t.Fatalf("history not linearizable at key %q\n%s\n%s",
			res.BadKey, res.Detail, rec.FormatKey(res.BadKey))
	}
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	t.Logf("rebalanced under %d ops (%d ambiguous), linearizable", res.Ops, res.Unknown)
}

// TestRebalanceUnderPipelinedLoad grows the cluster 3→7 while 16 pipelined
// writers hammer it. Regression test for a mid-takeover demotion race: a
// rival's late takeover sync demoted a fresh leader whose takeover then
// opened the cohort anyway, leaving an orphaned leader znode the cohort
// waited on forever (rebalance stalled for minutes).
func TestRebalanceUnderPipelinedLoad(t *testing.T) {
	sc, err := NewSpinnakerCluster(Options{
		Nodes:        3,
		CommitPeriod: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	writers := 16
	if testing.Short() {
		writers = 4
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		c := sc.NewClient()
		wg.Add(1)
		go func(w int, c *core.Client) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := c.NewBatch()
				for k := 0; k < 8; k++ {
					b.Put(sc.Key((w*1000000+i*8+k)%100000000), "c", []byte("v"))
				}
				_, _ = b.Run()
			}
		}(w, c)
	}
	for len(sc.CurrentLayout().Nodes()) < 7 {
		if _, err := sc.AddNode(""); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Rebalance(120 * time.Second); err != nil {
		t.Fatalf("rebalance under pipelined load: %v", err)
	}
	close(stop)
	wg.Wait()

	// Post-rebalance sanity: a fresh client sees consistent state on a
	// stride of keys across every range.
	c := sc.NewClient()
	for i, k := range strideKeys(sc, 20) {
		if _, err := c.Put(k, "post", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("post-rebalance write %s: %v", k, err)
		}
		if v, _, err := c.Get(k, "post", true); err != nil || string(v) != fmt.Sprintf("p%d", i) {
			t.Fatalf("post-rebalance read %s: %q %v", k, v, err)
		}
	}
}

// TestLayoutVersionPublication checks the CAS discipline on the published
// layout: stale publications are refused.
func TestLayoutVersionPublication(t *testing.T) {
	sc := reconfigCluster(t)
	l := sc.CurrentLayout()
	next, err := l.WithNode("nodeX")
	if err != nil {
		t.Fatal(err)
	}
	sess := sc.Coord.Connect()
	defer sess.Close()
	if err := core.PublishLayout(sess, next); err != nil {
		t.Fatal(err)
	}
	// Re-publishing the same version (or the old one) must fail.
	if err := core.PublishLayout(sess, next); !errors.Is(err, core.ErrLayoutConflict) {
		t.Fatalf("want ErrLayoutConflict, got %v", err)
	}
	if err := core.PublishLayout(sess, l); !errors.Is(err, core.ErrLayoutConflict) {
		t.Fatalf("want ErrLayoutConflict for stale layout, got %v", err)
	}
	got, err := core.FetchLayout(sess)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != next.Version() || !got.HasNode("nodeX") {
		t.Fatalf("fetched layout v%d nodes %v", got.Version(), got.Nodes())
	}
}
