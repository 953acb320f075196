package sim

import (
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/lin"
)

// The zipfian skew experiment. The network model charges a serialized
// per-message receive cost on every link, so a link delivers at most
// 1/MessageCost messages per second. With replication 3 on 3 nodes and
// proposal batching disabled, every committed write costs one propose on
// each leader→follower link and one ack on each follower→leader link:
//
//   - all load on ONE leader: that leader's two outbound links each carry
//     every propose, capping cluster throughput at 1/MessageCost;
//   - leaders spread across all three nodes: each ordered link carries a
//     mix of proposes and acks totalling ~2/3 of the write volume, so the
//     cluster sustains ~1.5/MessageCost.
//
// A zipfian workload aimed at one range therefore runs at ~2/3 of the
// uniform ceiling until the balancer splits the hot range at its
// load-weighted median key and spreads leadership — exactly the hot-spot
// mechanics the paper's range-partitioned design is built to absorb.

func skewOpts() Options {
	return Options{
		Nodes:        3,
		Replication:  3,
		NetworkDelay: 5 * time.Microsecond,
		MessageCost:  200 * time.Microsecond,
		// One message per proposal: batching would let a single link
		// carry unbounded write volume and mask the hot leader.
		DisableProposalBatching: true,
		WriteTimeout:            2 * time.Second,
	}
}

// runPutLoad starts nWriters closed-loop writers; pickKey chooses each
// write's row. Returns the success counter and a stop/drain pair.
func runPutLoad(t *testing.T, sc *SpinnakerCluster, nWriters int, seed int64,
	pickKey func(rng *rand.Rand) string) (*int64, chan struct{}, *sync.WaitGroup) {
	t.Helper()
	ops := new(int64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	val := make([]byte, 64)
	for w := 0; w < nWriters; w++ {
		c := sc.NewClient() // attach outside the goroutine
		wg.Add(1)
		go func(w int, c *core.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Put(pickKey(rng), "v", val); err == nil {
					atomic.AddInt64(ops, 1)
				} else {
					// Brief elections during balancer transfers surface
					// as errors; back off instead of spinning on them.
					time.Sleep(time.Millisecond)
				}
			}
		}(w, c)
	}
	return ops, stop, &wg
}

// rate measures the success throughput (ops/sec) over a window.
func rate(ops *int64, window time.Duration) float64 {
	before := atomic.LoadInt64(ops)
	start := time.Now()
	time.Sleep(window)
	return float64(atomic.LoadInt64(ops)-before) / time.Since(start).Seconds()
}

// measureUniformBaseline runs the same physics with uniformly spread keys
// and returns the sustained throughput.
func measureUniformBaseline(t *testing.T, domain int) float64 {
	t.Helper()
	sc, err := NewSpinnakerCluster(skewOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The ceiling assumes leaders spread over the nodes; start-up elections
	// now and then leave all three ranges led by one node, which is the
	// single-leader cap the skewed run is supposed to be compared against.
	layout := sc.CurrentLayout()
	for id := 0; id < layout.NumRanges(); id++ {
		if err := sc.TransferLeadership(uint32(id), layout.HomeNode(uint32(id)), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	pick := func(rng *rand.Rand) string { return sc.Key(rng.Intn(domain)) }
	ops, stop, wg := runPutLoad(t, sc, 24, 1000, pick)
	time.Sleep(700 * time.Millisecond) // warm up past elections and cold caches
	r := rate(ops, 1500*time.Millisecond)
	close(stop)
	wg.Wait()
	return r
}

// hotRangeKeys maps zipf ranks, in key order, onto the key span of the
// range covering the middle of the domain, so rank order = key order and
// the load-weighted median key splits the observed load roughly in half.
// Returns the keys, the hot range's bounds, and the initial range count.
func hotRangeKeys(t *testing.T, sc *SpinnakerCluster, domain, items int) ([]string, string, string, int) {
	t.Helper()
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
	return keys, lowS, highS, layout.NumRanges()
}

// skewPoint runs one θ point of the sweep: skewed load into one range,
// pre-balancer rate, balancer on, post rate. No linearizability session
// and no assertions — the regression test covers those at θ=0.99; this
// generates EXPERIMENTS.md's sweep table.
func skewPoint(t *testing.T, theta float64, domain int) (pre, post float64, ranges0, ranges1 int) {
	t.Helper()
	sc, err := NewSpinnakerCluster(skewOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const hotItems = 1000
	hotKeys, _, _, initialRanges := hotRangeKeys(t, sc, domain, hotItems)

	ops := new(int64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	val := make([]byte, 64)
	for w := 0; w < 24; w++ {
		c := sc.NewClient()
		z := NewZipf(rand.New(rand.NewSource(5000+int64(w))), hotItems, theta)
		wg.Add(1)
		go func(c *core.Client, z *Zipf) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Put(hotKeys[z.Next()], "v", val); err == nil {
					atomic.AddInt64(ops, 1)
				} else {
					time.Sleep(time.Millisecond)
				}
			}
		}(c, z)
	}

	time.Sleep(1200 * time.Millisecond)
	pre = rate(ops, 700*time.Millisecond)
	bal := sc.StartBalancer(BalancerOptions{
		Interval:          150 * time.Millisecond,
		HotShare:          0.45,
		MinWritesPerRound: 150,
		HotRounds:         2,
		CooldownRounds:    2,
		MaxRanges:         8,
		ActionTimeout:     20 * time.Second,
	})
	time.Sleep(6 * time.Second)
	post = rate(ops, 2*time.Second)
	close(stop)
	wg.Wait()
	bal.Stop()
	return pre, post, initialRanges, sc.CurrentLayout().NumRanges()
}

// TestZipfianSkewSweep regenerates EXPERIMENTS.md's θ sweep table. It is
// a multi-minute, timing-sensitive throughput experiment, so it only runs
// when asked for (and never under -short or -race):
//
//	SPINNAKER_SKEW_SWEEP=1 go test -run TestZipfianSkewSweep -v -timeout 900s ./internal/sim/
func TestZipfianSkewSweep(t *testing.T) {
	if os.Getenv("SPINNAKER_SKEW_SWEEP") == "" {
		t.Skip("set SPINNAKER_SKEW_SWEEP=1 to run the θ sweep (see EXPERIMENTS.md)")
	}
	domain := 1
	for i := 0; i < 8; i++ {
		domain *= 10
	}
	uniRate := measureUniformBaseline(t, domain)
	t.Logf("uniform baseline: %.0f ops/s", uniRate)
	t.Logf("%-6s %8s %8s %8s %8s %8s", "theta", "pre", "pre%", "post", "post%", "ranges")
	for _, theta := range []float64{0.5, 0.8, 0.99, 1.2} {
		pre, post, r0, r1 := skewPoint(t, theta, domain)
		t.Logf("%-6.2f %8.0f %7.0f%% %8.0f %7.0f%% %4d->%d",
			theta, pre, 100*pre/uniRate, post, 100*post/uniRate, r0, r1)
	}
}

// TestZipfianSkewBalancer is the end-to-end skew regression: a θ=0.99
// zipfian workload concentrated inside one range throttles the cluster to
// a fraction of its uniform-load throughput; the balancer must split the
// hot range at the load-weighted median and spread leadership until
// throughput recovers to at least 70% of the uniform baseline — while a
// linearizability-tracked client session stays correct across every
// split, move, and leadership transfer.
func TestZipfianSkewBalancer(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second throughput experiment")
	}
	domain := 1
	for i := 0; i < 8; i++ { // default KeyWidth
		domain *= 10
	}
	uniRate := measureUniformBaseline(t, domain)
	if uniRate < 1000 {
		t.Fatalf("uniform baseline implausibly low: %.0f ops/s", uniRate)
	}

	sc, err := NewSpinnakerCluster(skewOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	const hotItems = 1000
	hotKeys, lowS, highS, initialRanges := hotRangeKeys(t, sc, domain, hotItems)

	ops := new(int64)
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
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Put(hotKeys[z.Next()], "v", val); err == nil {
					atomic.AddInt64(ops, 1)
				} else {
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

	time.Sleep(1200 * time.Millisecond) // settle into the skewed steady state
	preRate := rate(ops, 700*time.Millisecond)
	if preRate >= 0.9*uniRate {
		t.Fatalf("skew did not throttle throughput: skewed %.0f vs uniform %.0f ops/s", preRate, uniRate)
	}

	bal := sc.StartBalancer(BalancerOptions{
		Interval:          150 * time.Millisecond,
		HotShare:          0.45,
		MinWritesPerRound: 150,
		HotRounds:         2,
		CooldownRounds:    2,
		MaxRanges:         8,
		ActionTimeout:     20 * time.Second,
	})
	defer bal.Stop()

	// The first split must land within a bounded number of rounds.
	var firstSplit *BalancerAction
	deadline := time.Now().Add(12 * time.Second)
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
		time.Sleep(100 * time.Millisecond)
	}
	if firstSplit.Round > 40 {
		t.Fatalf("first split took %d rounds, want <= 40", firstSplit.Round)
	}
	if firstSplit.Key <= lowS || (highS != "" && firstSplit.Key >= highS) {
		t.Fatalf("split key %q outside hot range [%q,%q)", firstSplit.Key, lowS, highS)
	}

	// Let the balancer finish spreading load, then measure the recovered
	// steady state.
	time.Sleep(4 * time.Second)
	postRate := rate(ops, 2*time.Second)

	close(stop)
	wg.Wait()
	bal.Stop()

	finalRanges := sc.CurrentLayout().NumRanges()
	t.Logf("uniform %.0f ops/s; skewed pre %.0f (%.0f%%), post %.0f (%.0f%%); ranges %d -> %d; actions: %+v",
		uniRate, preRate, 100*preRate/uniRate, postRate, 100*postRate/uniRate,
		initialRanges, finalRanges, bal.Actions())
	if finalRanges <= initialRanges {
		t.Fatalf("layout still has %d ranges", finalRanges)
	}
	if postRate < 0.70*uniRate {
		t.Fatalf("throughput recovered to only %.0f%% of uniform (%.0f vs %.0f ops/s), want >= 70%%",
			100*postRate/uniRate, postRate, uniRate)
	}
	if postRate <= preRate {
		t.Fatalf("no recovery: pre %.0f, post %.0f ops/s", preRate, postRate)
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
