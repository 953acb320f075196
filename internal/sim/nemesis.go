package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"spinnaker/internal/simtime"
	"strings"
	"sync"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/lin"
	"spinnaker/internal/transport"
)

// NemesisFault names one fault primitive the nemesis can schedule. Each
// corresponds to a failure mode of the paper's availability analysis
// (§8.1) or to a network condition below it.
type NemesisFault string

const (
	// FaultIsolateLeader cuts a range's current leader off from every
	// other endpoint (a dead switch port): the cohort must refuse writes
	// rather than diverge, and recover on heal.
	FaultIsolateLeader NemesisFault = "isolate-leader"
	// FaultSplitMajority partitions one cohort node (sometimes the
	// leader) away from the other two: the majority side must stay
	// available, the minority side must not serve divergent state.
	FaultSplitMajority NemesisFault = "split-majority"
	// FaultFlapLinks rapidly partitions and heals random node pairs —
	// the oscillating connectivity that stresses retransmission and
	// dedupe paths.
	FaultFlapLinks NemesisFault = "flap-links"
	// FaultCrashRestart crashes one node (losing its unforced log tail)
	// and restarts it mid-workload (§6.1 local recovery + catch-up).
	FaultCrashRestart NemesisFault = "crash-restart"
	// FaultCrashDisk crashes one node, destroys its stable storage, and
	// restarts it: recovery must run entirely through the catch-up phase
	// (§6.1 disk failure).
	FaultCrashDisk NemesisFault = "crash-disk"
)

// AllFaults lists every fault primitive, in the order scenarios cycle
// through them.
var AllFaults = []NemesisFault{
	FaultIsolateLeader,
	FaultSplitMajority,
	FaultFlapLinks,
	FaultCrashRestart,
	FaultCrashDisk,
}

// ScenarioOptions configure one nemesis run. Every random choice — fault
// schedule, fault targets, workload operations, link-fault decisions —
// derives from Seed, so a failing run is replayed by rerunning its seed
// with the same options (modulo goroutine timing, which shifts which
// operations overlap but not the checked guarantees).
type ScenarioOptions struct {
	// Seed drives the nemesis schedule, the workload, and the network
	// fault plane.
	Seed int64
	// Nodes is the cluster size (default 3).
	Nodes int
	// Writers is the number of concurrent workload clients (default 4).
	Writers int
	// Keys is the number of distinct rows the workload contends on,
	// strided across the cluster's key ranges (default 5).
	Keys int
	// Duration is the fault-injection window; the workload runs for a
	// settle period beyond it so the healed cluster's state is observed
	// (default 3s).
	Duration time.Duration
	// Faults is the set of fault primitives composed on the schedule
	// (default AllFaults).
	Faults []NemesisFault
	// LinkFaults is a background fault plane applied to every
	// node↔node link for the whole run (zero = clean links outside the
	// scheduled faults).
	LinkFaults transport.LinkFaults
	// CheckTimeout bounds the linearizability search (default 60s).
	CheckTimeout time.Duration
	// Rebalance runs live reconfiguration concurrently with the fault
	// schedule: a new node is added partway into the run and the cluster
	// rebalances onto it (splits, cohort moves, leadership transfers)
	// while the workload executes and faults fire. With Rebalance set
	// the decision *draw* stream stays seed-deterministic, but resolved
	// fault targets can differ between runs (the range set changes with
	// reconfiguration timing).
	Rebalance bool
	// Balance runs the load-adaptive balancer (hot-range splitting,
	// leadership transfers, cohort moves) concurrently with the fault
	// schedule, with thresholds aggressive enough that the strided
	// workload triggers actions. Every layout version published while it
	// runs is checked against cluster.CheckInvariants; a violation fails
	// the scenario at the version that introduced it.
	Balance bool
}

func (o *ScenarioOptions) fillDefaults() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Writers <= 0 {
		o.Writers = 4
	}
	if o.Keys <= 0 {
		o.Keys = 5
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if len(o.Faults) == 0 {
		o.Faults = AllFaults
	}
	if o.CheckTimeout <= 0 {
		o.CheckTimeout = 60 * time.Second
	}
}

// ScenarioResult reports one nemesis run.
type ScenarioResult struct {
	Seed  int64
	Check lin.CheckResult
	// Steps are the nemesis actions as executed (target names included).
	Steps []string
	// Schedule is the seed-determined decision sequence: identical for
	// identical (seed, options), even where the runtime targets (who is
	// leader) differ between runs.
	Schedule []string
	Ops      int   // operations in the checked history
	Reads    int64 // completed reads
	Writes   int64 // acknowledged writes
	// BalancerActions are the balancer's completed actions (Balance mode).
	BalancerActions []BalancerAction
	// LayoutsChecked counts layout versions validated against
	// cluster.CheckInvariants during the run (Balance mode).
	LayoutsChecked int
	// History is the full recorder, for dumping failing keys.
	History *lin.Recorder
}

// ErrNotLinearizable reports a consistency violation; the scenario result
// carries the offending key and the reproducing seed.
var ErrNotLinearizable = errors.New("sim: history is not linearizable")

// RunScenario builds a cluster, runs concurrent writers under a seeded
// nemesis schedule, heals everything, and checks the recorded history for
// per-key linearizability. The returned error is ErrNotLinearizable (with
// the result still populated) on a violation, or an infrastructure error.
func RunScenario(opts ScenarioOptions) (*ScenarioResult, error) {
	opts.fillDefaults()
	sc, err := NewSpinnakerCluster(Options{
		Nodes:        opts.Nodes,
		FaultSeed:    opts.Seed,
		LinkFaults:   opts.LinkFaults,
		CommitPeriod: 5 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer sc.Stop()
	if err := sc.WaitReady(30 * time.Second); err != nil {
		return nil, err
	}

	rec := lin.NewRecorder()
	res := &ScenarioResult{Seed: opts.Seed, History: rec}

	// Stride the contended keys across the whole key domain so every
	// range (and so every cohort and leader) sees traffic.
	keys := make([]string, opts.Keys)
	domain := sc.KeyDomain()
	for i := range keys {
		keys[i] = sc.Key(i * (domain / opts.Keys))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, writes int64
	var countMu sync.Mutex
	for w := 0; w < opts.Writers; w++ {
		c := sc.NewClient() // NewClient mutates cluster state: attach here, not in the goroutine
		// Strict writes keep the history sound: a transparent retry
		// after an ambiguous attempt can execute a write twice, and the
		// second attempt's honest reply would misrecord the first's
		// effect.
		c.SetStrictWrites(true)
		wg.Add(1)
		go func(w int, c *core.Client) {
			defer wg.Done()
			r, wr := runWriter(c, rec, keys, w, opts.Seed, stop)
			countMu.Lock()
			reads += r
			writes += wr
			countMu.Unlock()
		}(w, c)
	}

	nem := &nemesis{
		sc:      sc,
		rec:     rec,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		crashed: make(map[string]bool),
	}

	// Load-adaptive balancing under the fault schedule: the balancer
	// splits, transfers, and moves while faults fire, and every layout
	// version it (or anything else) publishes is structurally validated.
	var bal *Balancer
	var invErr error
	var layoutsChecked int
	invQuit := make(chan struct{})
	invDone := make(chan struct{})
	if opts.Balance {
		bal = sc.StartBalancer(BalancerOptions{
			Interval: 100 * time.Millisecond,
			// The strided workload spreads near-evenly, so thresholds
			// sit just below an even share: actions fire on ordinary
			// imbalance, exercising the machinery the faults attack.
			HotShare:          0.30,
			NodeHotShare:      0.45,
			MinWritesPerRound: 30,
			HotRounds:         2,
			CooldownRounds:    2,
			MaxRanges:         2 * opts.Nodes,
			ActionTimeout:     30 * time.Second,
			OnAction: func(a BalancerAction) {
				rec.Note("balancer: %s range %d (new %d, key %q, %s -> %s) err=%v",
					a.Kind, a.Range, a.New, a.Key, a.From, a.To, a.Err)
			},
		})
		go func() {
			defer close(invDone)
			var seen uint64
			for {
				select {
				case <-invQuit:
					return
				case <-time.After(20 * time.Millisecond):
				}
				l := sc.CurrentLayout()
				if l == nil || l.Version() == seen {
					continue
				}
				seen = l.Version()
				layoutsChecked++
				if err := l.CheckInvariants(); err != nil && invErr == nil {
					invErr = err
				}
			}
		}()
	} else {
		close(invDone)
	}
	var balActions []BalancerAction
	stopBalance := func() {
		if bal == nil {
			return
		}
		bal.Stop()
		balActions = bal.Actions()
		close(invQuit)
		<-invDone
		// One last validation of whatever version the run converged on.
		if l := sc.CurrentLayout(); l != nil {
			layoutsChecked++
			if err := l.CheckInvariants(); err != nil && invErr == nil {
				invErr = err
			}
		}
		bal = nil
	}

	// Live reconfiguration under the fault schedule: add a node partway
	// in, then rebalance the grown ring while faults keep firing. The
	// executor retries through fault windows; the generous deadline lets
	// it converge after the final heal.
	var rebalErr error
	rebalDone := make(chan struct{})
	if opts.Rebalance {
		go func() {
			defer close(rebalDone)
			simtime.Sleep(opts.Duration / 5)
			id, err := sc.AddNode("")
			if err != nil {
				rebalErr = err
				return
			}
			rec.Note("nemesis: add node %s", id)
			if err := sc.Rebalance(opts.Duration + 60*time.Second); err != nil {
				rebalErr = err
				return
			}
			rec.Note("nemesis: rebalanced onto %s (%d ranges)", id, sc.CurrentLayout().NumRanges())
		}()
	} else {
		close(rebalDone)
	}

	// bail tears the run down on an infrastructure error: the workload
	// stops, and the rebalance goroutine — which still touches the
	// cluster and the recorder — must finish before the caller's
	// deferred Stop races it.
	bail := func(err error) (*ScenarioResult, error) {
		close(stop)
		wg.Wait()
		<-rebalDone
		stopBalance()
		return nil, err
	}

	deadline := simtime.Now().Add(opts.Duration)
	for simtime.Now().Before(deadline) {
		fault := opts.Faults[nem.rng.Intn(len(opts.Faults))]
		if err := nem.apply(fault); err != nil {
			return bail(err)
		}
		nem.sleep(50, 200) // recovery gap between faults
	}
	// Final heal: restore connectivity, restart the dead, then let the
	// workload observe the recovered cluster before stopping.
	sc.HealAll()
	rec.Note("nemesis: heal-all")
	for id := range nem.crashed {
		if err := sc.RestartNode(id); err != nil {
			return bail(err)
		}
		rec.Note("nemesis: restart %s", id)
	}
	// An in-flight rebalance finishes against the healed cluster before
	// the workload stops observing it.
	<-rebalDone
	if rebalErr != nil {
		return bail(fmt.Errorf("sim: seed %d: rebalance under faults: %w", opts.Seed, rebalErr))
	}
	simtime.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	// The balancer (if any) finishes its in-flight action and the final
	// layout is validated before the history is judged.
	stopBalance()

	res.Steps = nem.steps
	res.Schedule = nem.schedule
	res.Reads, res.Writes = reads, writes
	res.BalancerActions, res.LayoutsChecked = balActions, layoutsChecked
	if invErr != nil {
		return res, fmt.Errorf("sim: seed %d: layout invariant violated under balancer: %w", opts.Seed, invErr)
	}
	res.Check = rec.Check(opts.CheckTimeout)
	res.Ops = res.Check.Ops
	if res.Check.Err != nil {
		return res, fmt.Errorf("sim: seed %d: linearizability check undecided: %w", opts.Seed, res.Check.Err)
	}
	if !res.Check.Linearizable {
		return res, fmt.Errorf("%w: seed %d, key %q; rerun with the same seed to reproduce\n%s\nhistory:\n%s",
			ErrNotLinearizable, opts.Seed, res.Check.BadKey, res.Check.Detail, rec.FormatKey(res.Check.BadKey))
	}
	return res, nil
}

// FormatSteps renders the nemesis schedule one action per line.
func (r *ScenarioResult) FormatSteps() string { return strings.Join(r.Steps, "\n") }

// nemesis schedules fault injections against a running cluster. Every
// random draw comes from its seeded rng and is made up front in each
// apply round, before any runtime-dependent skip, so the decision
// sequence (Schedule) is a pure function of the seed — runtime state can
// change who the targets resolve to, never what is drawn next.
type nemesis struct {
	sc       *SpinnakerCluster
	rec      *lin.Recorder
	rng      *rand.Rand
	steps    []string
	schedule []string
	crashed  map[string]bool
}

func (n *nemesis) note(format string, args ...interface{}) {
	s := fmt.Sprintf(format, args...)
	n.steps = append(n.steps, s)
	n.rec.Note("nemesis: %s", s)
}

func (n *nemesis) decide(format string, args ...interface{}) {
	n.schedule = append(n.schedule, fmt.Sprintf(format, args...))
}

// draw returns a seeded-random duration in [lo, hi) milliseconds.
func (n *nemesis) draw(lo, hi int) time.Duration {
	return time.Duration(lo+n.rng.Intn(hi-lo)) * time.Millisecond
}

// sleep waits a seeded-random duration in [lo, hi) milliseconds.
func (n *nemesis) sleep(lo, hi int) {
	simtime.Sleep(n.draw(lo, hi))
}

// apply runs one fault primitive to completion (inject, hold, undo).
func (n *nemesis) apply(fault NemesisFault) error {
	switch fault {
	case FaultIsolateLeader:
		// Draw raw so the decision stream is a pure function of the
		// seed, then resolve against the current layout (under live
		// reconfiguration the range set changes mid-run).
		raw := n.rng.Intn(1 << 30)
		hold := n.draw(150, 450)
		ids := n.sc.CurrentLayout().RangeIDs()
		r := ids[raw%len(ids)]
		n.decide("isolate-leader draw=%d hold=%v", raw, hold)
		leader := n.sc.LeaderOf(r)
		if leader == "" {
			return nil // mid-election; the decision was drawn, skip the action
		}
		n.note("isolate leader %s of range %d for %v", leader, r, hold)
		n.sc.Isolate(leader)
		simtime.Sleep(hold)
		n.sc.HealAll()
		n.note("heal")
	case FaultSplitMajority:
		raw := n.rng.Intn(1 << 30)
		perm := n.rng.Intn(1 << 30)
		hold := n.draw(150, 450)
		l := n.sc.CurrentLayout()
		ids := l.RangeIDs()
		r := ids[raw%len(ids)]
		cohort := append([]string(nil), l.Cohort(r)...)
		minorityIdx := perm % len(cohort)
		minority := []string{cohort[minorityIdx]}
		majority := append(append([]string(nil), cohort[:minorityIdx]...), cohort[minorityIdx+1:]...)
		n.decide("split draw=%d perm=%d hold=%v", raw, perm, hold)
		n.note("split range %d: %v | %v for %v", r, minority, majority, hold)
		n.sc.PartitionNodes(minority, majority)
		simtime.Sleep(hold)
		n.sc.HealAll()
		n.note("heal")
	case FaultFlapLinks:
		nodes := n.sc.Layout.Nodes()
		flaps := 3 + n.rng.Intn(4)
		n.decide("flap n=%d", flaps)
		n.note("flap %d links", flaps)
		for i := 0; i < flaps; i++ {
			a := nodes[n.rng.Intn(len(nodes))]
			b := nodes[n.rng.Intn(len(nodes))]
			oneWay := n.rng.Intn(2) == 0
			hold := n.draw(20, 80)
			n.decide("flap %s->%s oneway=%t hold=%v", a, b, oneWay, hold)
			if a == b {
				continue
			}
			if oneWay {
				n.sc.Net.PartitionOneWay(a, b)
			} else {
				n.sc.Net.Partition(a, b)
			}
			simtime.Sleep(hold)
			n.sc.HealAll()
		}
		n.note("heal")
	case FaultCrashRestart, FaultCrashDisk:
		nodes := n.sc.Layout.Nodes()
		victim := nodes[n.rng.Intn(len(nodes))]
		hold := n.draw(150, 450)
		disk := fault == FaultCrashDisk
		n.decide("crash %s disk=%t hold=%v", victim, disk, hold)
		if len(n.crashed) > 0 {
			return nil // keep the majority alive: one node down at a time
		}
		if err := n.sc.CrashNode(victim); err != nil {
			return nil // already gone; decision drawn, action skipped
		}
		n.crashed[victim] = true
		if disk {
			n.sc.FailDisk(victim)
			n.note("crash %s + disk failure", victim)
		} else {
			n.note("crash %s", victim)
		}
		simtime.Sleep(hold)
		if err := n.sc.RestartNode(victim); err != nil {
			return err
		}
		delete(n.crashed, victim)
		n.note("restart %s", victim)
	default:
		return fmt.Errorf("sim: unknown nemesis fault %q", fault)
	}
	return nil
}

// runWriter drives one workload client until stop closes: a mix of strong
// reads, puts of unique values, and read–CAS pairs, every operation
// recorded. Returns (completed reads, acknowledged writes).
func runWriter(c *core.Client, rec *lin.Recorder, keys []string, w int, seed int64, stop <-chan struct{}) (reads, writes int64) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(w)))
	const col = "v"
	seq := 0
	for {
		select {
		case <-stop:
			return
		default:
		}
		// Pace the workload: contention stays high, but per-key
		// histories remain small enough for the checker to search in
		// seconds rather than minutes.
		simtime.Sleep(time.Duration(100+rng.Intn(300)) * time.Microsecond)
		key := keys[rng.Intn(len(keys))]
		switch p := rng.Float64(); {
		case p < 0.40: // strong read
			if _, ok := recordGet(rec, c, w, key, col); ok {
				reads++
			}
		case p < 0.75: // put of a unique value
			seq++
			val := fmt.Sprintf("w%d-%d", w, seq)
			op := rec.Invoke(w, lin.Op{Kind: lin.Put, Key: key, Value: val})
			v, err := c.Put(key, col, []byte(val))
			switch {
			case err == nil:
				op.OK(lin.Result{Version: v})
				writes++
			case errors.Is(err, core.ErrAmbiguous):
				// Sequenced but unconfirmed: may take effect.
				op.Unknown()
			default:
				// Strict clients only surface other errors when every
				// attempt definitely took no effect.
				op.Fail()
			}
		default: // read–CAS (the §3 read-modify-write transaction)
			ver, ok := recordGet(rec, c, w, key, col)
			if !ok {
				continue
			}
			reads++
			seq++
			val := fmt.Sprintf("w%d-%d", w, seq)
			op := rec.Invoke(w, lin.Op{Kind: lin.CondPut, Key: key, Value: val, CondVer: ver})
			v, err := c.ConditionalPut(key, col, []byte(val), ver)
			switch {
			case err == nil:
				op.OK(lin.Result{Version: v})
				writes++
			case errors.Is(err, core.ErrVersionMismatch):
				op.OK(lin.Result{Mismatch: true})
			case errors.Is(err, core.ErrAmbiguous):
				op.Unknown()
			default:
				op.Fail()
			}
		}
	}
}

// recordGet performs and records one strong read; it reports the version
// read (0 for not-found) and whether the read completed.
func recordGet(rec *lin.Recorder, c *core.Client, w int, key, col string) (uint64, bool) {
	op := rec.Invoke(w, lin.Op{Kind: lin.Get, Key: key})
	val, ver, err := c.Get(key, col, true)
	switch {
	case err == nil:
		op.OK(lin.Result{Value: string(val), Version: ver})
		return ver, true
	case errors.Is(err, core.ErrNotFound):
		op.OK(lin.Result{NotFound: true})
		return 0, true
	default:
		// A failed read has no effect and returned nothing: it
		// constrains no history.
		op.Fail()
		return 0, false
	}
}
