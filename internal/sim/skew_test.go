package sim

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/lin"
)

// The zipfian skew test. A θ=0.99 zipfian write load aimed inside one range
// lands on that range's leader; the balancer must split the hot range at its
// load-weighted median key and spread the pieces' leadership over the
// nodes — the hot-spot mechanics the paper's range-partitioned design is
// built to absorb. Every assertion is on where writes commit, read from the
// leaders' per-range write counters (RangeMetrics.Writes, the signal the
// balancer samples), never on a rate: a closed-loop writer draws each key
// from the zipf distribution and retries it until it commits, so how
// committed writes divide over ranges follows the key distribution however
// fast or slow the host is.

// skewWindow is the number of committed writes each load-share window
// spans: enough that the 24 writes in flight at its edges move a share by
// under 1%.
const skewWindow = 3000

// replicaKey names one node's replica of one range.
type replicaKey struct {
	node string
	rng  uint32
}

// leaderWrites returns, per replica, the writes that node has committed as
// that range's leader.
func leaderWrites(sc *SpinnakerCluster) map[replicaKey]int64 {
	out := make(map[replicaKey]int64)
	for _, id := range sc.Nodes() {
		n, ok := sc.Node(id)
		if !ok {
			continue
		}
		for _, rm := range n.Metrics().Ranges {
			out[replicaKey{id, rm.Range}] = rm.Writes
		}
	}
	return out
}

// loadWindow is how one window's committed writes divided over leader
// nodes, and over the ranges each led.
type loadWindow struct {
	total    int64
	perNode  map[string]int64
	perRange map[replicaKey]int64
}

func (w loadWindow) share(n int64) float64 { return float64(n) / float64(w.total) }

// busiest returns the node that committed the most writes in the window.
func (w loadWindow) busiest() (string, int64) {
	best, most := "", int64(-1)
	for nd, n := range w.perNode {
		if n > most {
			best, most = nd, n
		}
	}
	return best, most
}

// commitWindow waits until the leaders have committed at least n more
// writes and returns which nodes committed them.
func commitWindow(t *testing.T, sc *SpinnakerCluster, n int64) loadWindow {
	t.Helper()
	before := leaderWrites(sc)
	deadline := time.Now().Add(60 * time.Second)
	for {
		time.Sleep(10 * time.Millisecond)
		w := loadWindow{perNode: make(map[string]int64), perRange: make(map[replicaKey]int64)}
		for k, c := range leaderWrites(sc) {
			if d := c - before[k]; d > 0 {
				w.perNode[k.node] += d
				w.perRange[k] = d
				w.total += d
			}
		}
		if w.total >= n {
			return w
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaders committed %d writes, want a window of %d", w.total, n)
		}
	}
}

// hotRangeKeys maps zipf ranks, in key order, onto the key span of the
// range covering the middle of the domain, so rank order = key order and
// the load-weighted median key splits the observed load roughly in half.
// Returns the keys, the hot range and its bounds.
func hotRangeKeys(t *testing.T, sc *SpinnakerCluster, items int) ([]string, uint32, string, string) {
	t.Helper()
	domain := sc.KeyDomain()
	layout := sc.CurrentLayout()
	hotRange := layout.RangeOf(sc.Key(domain / 2))
	lowS, highS := layout.Bounds(hotRange)
	lowN, err := strconv.Atoi(lowS)
	if err != nil {
		t.Fatalf("non-numeric low bound %q", lowS)
	}
	highN := domain
	if highS != "" {
		if highN, err = strconv.Atoi(highS); err != nil {
			t.Fatalf("non-numeric high bound %q", highS)
		}
	}
	keys := make([]string, items)
	span := highN - lowN - 2
	for r := 0; r < items; r++ {
		keys[r] = sc.Key(lowN + 1 + r*span/items)
	}
	return keys, hotRange, lowS, highS
}

// hotLeaders returns the distinct current leaders of the ranges holding
// keys.
func hotLeaders(sc *SpinnakerCluster, keys []string) map[string]bool {
	layout := sc.CurrentLayout()
	ranges := make(map[uint32]bool)
	for _, k := range keys {
		ranges[layout.RangeOf(k)] = true
	}
	leaders := make(map[string]bool)
	for id := range ranges {
		if l := sc.LeaderOf(id); l != "" {
			leaders[l] = true
		}
	}
	return leaders
}

// TestZipfianSkewBalancer is the end-to-end skew regression: a θ=0.99
// zipfian workload concentrated inside one range commits almost entirely on
// that range's leader; the balancer must split the hot range at a key
// inside it and spread leadership until no leader node carries the
// balancer's NodeHotShare of the writes — while linearizability-tracked
// client sessions stay correct across every split and leadership transfer.
func TestZipfianSkewBalancer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second balancer run")
	}
	sc, err := NewSpinnakerCluster(Options{Nodes: 3, Replication: 3, WriteTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	const hotItems = 1000
	hotKeys, hotRange, lowS, highS := hotRangeKeys(t, sc, hotItems)
	initialRanges := sc.CurrentLayout().NumRanges()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	val := make([]byte, 64)
	for w := 0; w < 24; w++ {
		c := sc.NewClient()
		z := NewZipf(rand.New(rand.NewSource(3000+int64(w))), hotItems, 0.99)
		wg.Add(1)
		go func(c *core.Client, z *Zipf) {
			defer wg.Done()
			for {
				key := hotKeys[z.Next()]
				// Retry the key until it commits, so that writes divide
				// over ranges as the draws do. Brief elections during
				// balancer transfers surface as errors; back off instead
				// of spinning on them.
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := c.Put(key, "v", val); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(c, z)
	}

	// Two linearizability-tracked sessions contend on keys adjacent to
	// the two hottest zipf keys — same ranges, so they ride through every
	// split — plus one cold key in another range. They must not share
	// keys with the untracked load writers: the checker can only judge
	// histories whose every write it observed.
	rec := lin.NewRecorder()
	n0, _ := strconv.Atoi(hotKeys[0])
	n1, _ := strconv.Atoi(hotKeys[1])
	linKeys := []string{
		sc.Key(n0 + 1),
		sc.Key(n1 + 1),
		sc.Key(10),
	}
	for w := 0; w < 2; w++ {
		c := sc.NewClient()
		c.SetStrictWrites(true)
		wg.Add(1)
		go func(w int, c *core.Client) {
			defer wg.Done()
			runWriter(c, rec, linKeys, w, 77, stop)
		}(w, c)
	}
	stopLoad := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopLoad()

	// Before the balancer: the hot range's leader commits nearly every
	// write.
	pre := commitWindow(t, sc, skewWindow)
	hotLeader := sc.LeaderOf(hotRange)
	t.Logf("before: %d writes, range %d's leader %s committed %.3f (per node %v)",
		pre.total, hotRange, hotLeader, pre.share(pre.perNode[hotLeader]), pre.perNode)
	if s := pre.share(pre.perNode[hotLeader]); s < 0.9 {
		t.Fatalf("hot range %d's leader %s committed %.3f of %d writes, want >= 0.9 (per node %v)",
			hotRange, hotLeader, s, pre.total, pre.perNode)
	}

	opts := BalancerOptions{
		Interval:          150 * time.Millisecond,
		HotShare:          0.45,
		NodeHotShare:      0.6,
		MinWritesPerRound: 150,
		HotRounds:         2,
		CooldownRounds:    2,
		MaxRanges:         8,
		ActionTimeout:     20 * time.Second,
	}
	bal := sc.StartBalancer(opts)
	defer bal.Stop()

	// The first split must land within a bounded number of rounds, at a
	// key inside the hot range.
	var firstSplit *BalancerAction
	deadline := time.Now().Add(30 * time.Second)
	for firstSplit == nil {
		if time.Now().After(deadline) {
			t.Fatalf("balancer never split the hot range; actions: %+v", bal.Actions())
		}
		for _, a := range bal.Actions() {
			if a.Kind == "split" && a.Err == nil {
				split := a
				firstSplit = &split
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if firstSplit.Round > 40 {
		t.Fatalf("first split took %d rounds, want <= 40", firstSplit.Round)
	}
	if firstSplit.Key <= lowS || (highS != "" && firstSplit.Key >= highS) {
		t.Fatalf("split key %q outside hot range [%q,%q)", firstSplit.Key, lowS, highS)
	}

	// Afterwards the hot keys span more ranges, led by at least two nodes.
	for {
		leaders := hotLeaders(sc, hotKeys)
		if sc.CurrentLayout().NumRanges() > initialRanges && len(leaders) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hot keys still led by %v over %d ranges; actions: %+v",
				leaders, sc.CurrentLayout().NumRanges(), bal.Actions())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Measure once balancing has settled: the balancer has taken no action
	// for CooldownRounds + HotRounds rounds (its cooldown ran out, then it
	// had HotRounds rounds to find a hot range or node and found none), and
	// every range of the current layout has an open leader. Until then,
	// writers whose keys sit in a range that is electing or moving retry,
	// and a leadership transfer that did not take (TransferLeadership
	// accepts whoever leads) still leaves one node leading both halves.
	for bal.IdleRounds() < opts.CooldownRounds+opts.HotRounds || sc.WaitReady(0) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("balancing never settled: idle for %d rounds; actions: %+v", bal.IdleRounds(), bal.Actions())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// No leader node carries the share the balancer would act on.
	post := commitWindow(t, sc, skewWindow)
	busiest, most := post.busiest()
	stopLoad()
	bal.Stop()
	t.Logf("after: %d writes, busiest %s committed %.3f (per node %v); ranges %d -> %d; actions: %+v",
		post.total, busiest, post.share(most), post.perNode,
		initialRanges, sc.CurrentLayout().NumRanges(), bal.Actions())
	if s := post.share(most); s >= opts.NodeHotShare {
		t.Fatalf("after balancing, %s committed %.3f of %d writes, want < %.2f (per node %v; per {node range} %v)",
			busiest, s, post.total, opts.NodeHotShare, post.perNode, post.perRange)
	}

	check := rec.Check(60 * time.Second)
	if check.Err != nil {
		t.Fatalf("linearizability check undecided: %v", check.Err)
	}
	if !check.Linearizable {
		t.Fatalf("history not linearizable: key %q\n%s\n%s",
			check.BadKey, check.Detail, rec.FormatKey(check.BadKey))
	}
	t.Logf("linearizability: %d ops checked green", check.Ops)
}
