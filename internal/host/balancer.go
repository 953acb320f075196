package host

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/simtime"
)

// This file closes the loop between the metrics plane and the
// reconfiguration executor: a balancer samples per-range write load each
// round and, when one range (or one leader node) absorbs a disproportionate
// share, splits the hot range at the load-weighted median key reported by
// its leader's key sampler, or moves load off the overloaded node. Safety
// comes entirely from the executor it reuses (one-member-at-a-time cohort
// mutations with adoption barriers); the balancer adds the policy layer:
// hysteresis (consecutive hot rounds before acting, cooldown after) and a
// one-change-at-a-time gate (actions run synchronously on the loop, never
// concurrently).

// BalancerOptions tunes the balancer loop. Zero values take defaults.
type BalancerOptions struct {
	// Interval is the sampling round period.
	Interval time.Duration
	// HotShare is the fraction of the cluster's write load a single
	// range must absorb to be considered hot.
	HotShare float64
	// NodeHotShare is the load fraction a single leader node must carry
	// (while leading at least two ranges) to trigger an offload.
	NodeHotShare float64
	// MinWritesPerRound gates decisions: rounds with less total load are
	// ignored (idle clusters must not be churned).
	MinWritesPerRound int64
	// HotRounds is the hysteresis window: a range/node must stay hot for
	// this many consecutive rounds before the balancer acts.
	HotRounds int
	// CooldownRounds is how many rounds the balancer sits out after an
	// action, letting rates and placements settle before re-judging.
	CooldownRounds int
	// MaxRanges bounds splitting.
	MaxRanges int
	// ActionTimeout bounds each executor call.
	ActionTimeout time.Duration
	// OnAction, when non-nil, observes each completed action (tests).
	OnAction func(BalancerAction)
}

func (o *BalancerOptions) fillDefaults() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.HotShare <= 0 {
		o.HotShare = 0.5
	}
	if o.NodeHotShare <= 0 {
		o.NodeHotShare = 0.6
	}
	if o.MinWritesPerRound <= 0 {
		o.MinWritesPerRound = 50
	}
	if o.HotRounds <= 0 {
		o.HotRounds = 2
	}
	if o.CooldownRounds <= 0 {
		o.CooldownRounds = 3
	}
	if o.MaxRanges <= 0 {
		o.MaxRanges = 16
	}
	if o.ActionTimeout <= 0 {
		o.ActionTimeout = 30 * time.Second
	}
}

// BalancerAction is one completed (or failed) balancing action.
type BalancerAction struct {
	Round int
	Kind  string // "split", "transfer", or "move"
	Range uint32 // the acted-on range (for split: the origin)
	New   uint32 // split only: the created range
	Key   string // split only: the chosen split key
	From  string // transfer/move: the relieved node
	To    string // transfer/move: the receiving node
	Err   error  // non-nil if the executor call failed
}

// Balancer is the background load-adaptive placement loop.
type Balancer struct {
	c    *Cluster
	opts BalancerOptions

	stopCh   chan struct{}
	stopOnce sync.Once
	doneCh   chan struct{}

	mu      sync.Mutex
	actions []BalancerAction

	// idle is the number of rounds in a row, up to the last finished one,
	// that took no action; 0 while a round runs (IdleRounds).
	idle atomic.Int64

	// Per-round state (loop-local use only).
	lastWrites map[uint32]int64
	hotStreak  map[uint32]int
	nodeStreak map[string]int
	cooldown   int
	round      int
}

// StartBalancer runs a balancer loop against the cluster until Stop.
func (c *Cluster) StartBalancer(opts BalancerOptions) *Balancer {
	opts.fillDefaults()
	b := &Balancer{
		c:          c,
		opts:       opts,
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
		lastWrites: make(map[uint32]int64),
		hotStreak:  make(map[uint32]int),
		nodeStreak: make(map[string]int),
	}
	go b.loop()
	return b
}

// Stop ends the loop, waiting for any in-flight action to finish.
func (b *Balancer) Stop() {
	b.stopOnce.Do(func() { close(b.stopCh) })
	<-b.doneCh
}

// IdleRounds returns how many rounds in a row, up to the last finished one,
// took no action; it reads 0 while a round runs, so an action in progress
// never reads as idle. Once it reaches CooldownRounds, the placements of the
// last action have had the cooldown to settle.
func (b *Balancer) IdleRounds() int { return int(b.idle.Load()) }

// Actions returns the actions taken so far.
func (b *Balancer) Actions() []BalancerAction {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]BalancerAction(nil), b.actions...)
}

func (b *Balancer) record(a BalancerAction) {
	b.mu.Lock()
	b.actions = append(b.actions, a)
	b.mu.Unlock()
	if b.opts.OnAction != nil {
		b.opts.OnAction(a)
	}
}

func (b *Balancer) loop() {
	defer close(b.doneCh)
	t := time.NewTicker(b.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-b.stopCh:
			return
		case <-t.C:
			b.round++
			idle := b.idle.Swap(0) + 1
			if b.tick() {
				idle = 0
			}
			b.idle.Store(idle)
		}
	}
}

// rangeLoad is one round's view of a range: the leader node and the
// writes it committed since the previous round.
type rangeLoad struct {
	leader string
	delta  int64
}

// sampleLoad diffs per-range cumulative write counters against the
// previous round. Ranges seen for the first time contribute no delta
// (their counters may include pre-observation history).
func (b *Balancer) sampleLoad() (map[uint32]rangeLoad, int64) {
	loads := make(map[uint32]rangeLoad)
	cur := make(map[uint32]int64)
	for _, id := range b.c.Nodes() {
		n, ok := b.c.Node(id)
		if !ok {
			continue
		}
		nm := n.Metrics()
		for _, rm := range nm.Ranges {
			if rm.Role != "leader" {
				continue
			}
			cur[rm.Range] = rm.Writes
			prev, seen := b.lastWrites[rm.Range]
			delta := int64(0)
			if seen && rm.Writes > prev {
				delta = rm.Writes - prev
			}
			loads[rm.Range] = rangeLoad{leader: nm.ID, delta: delta}
		}
	}
	b.lastWrites = cur
	var total int64
	for _, l := range loads {
		total += l.delta
	}
	return loads, total
}

// tick runs one round and reports whether it took an action.
func (b *Balancer) tick() bool {
	loads, total := b.sampleLoad()
	if b.cooldown > 0 {
		b.cooldown--
		return false
	}
	if total < b.opts.MinWritesPerRound {
		b.hotStreak = make(map[uint32]int)
		b.nodeStreak = make(map[string]int)
		return false
	}

	// Hot-range detection with hysteresis.
	var hotRange uint32
	hotFound := false
	var hotLeader string
	for id, l := range loads {
		if float64(l.delta) >= b.opts.HotShare*float64(total) {
			b.hotStreak[id]++
			if b.hotStreak[id] >= b.opts.HotRounds {
				hotRange, hotFound, hotLeader = id, true, l.leader
			}
		} else {
			delete(b.hotStreak, id)
		}
	}

	// Hot-node detection: a node leading >=2 ranges that together absorb
	// most of the load (splitting a range it leads both halves of does
	// not help until one half moves).
	perNode := make(map[string]int64)
	ledBy := make(map[string][]uint32)
	for id, l := range loads {
		perNode[l.leader] += l.delta
		ledBy[l.leader] = append(ledBy[l.leader], id)
	}
	var hotNode string
	for nd, w := range perNode {
		if len(ledBy[nd]) >= 2 && float64(w) >= b.opts.NodeHotShare*float64(total) {
			b.nodeStreak[nd]++
			if b.nodeStreak[nd] >= b.opts.HotRounds && hotNode == "" {
				hotNode = nd
			}
		} else {
			delete(b.nodeStreak, nd)
		}
	}

	// One change at a time: prefer splitting a hot range (it creates the
	// parallelism), else offloading a hot node (it uses parallelism that
	// already exists).
	if hotFound && b.c.CurrentLayout().NumRanges() < b.opts.MaxRanges {
		if b.splitHot(hotRange, hotLeader, perNode) {
			b.afterAction()
			return true
		}
		// Unsplittable (e.g. a single hot key): fall through to node
		// offload, which can still move the whole range elsewhere.
	}
	if hotNode != "" && b.offloadNode(hotNode, ledBy[hotNode], loads, perNode) {
		b.afterAction()
		return true
	}
	return false
}

func (b *Balancer) afterAction() {
	b.cooldown = b.opts.CooldownRounds
	b.hotStreak = make(map[uint32]int)
	b.nodeStreak = make(map[string]int)
	// Counters move while an action executes; resample the baseline so
	// the first post-action round doesn't see a giant stale delta.
	b.lastWrites = make(map[uint32]int64)
}

// splitHot splits the hot range at its leader's load-weighted median key
// and hands leadership of the spun-off half to the least-loaded node in
// its cohort. Returns false when no useful split exists.
func (b *Balancer) splitHot(id uint32, leader string, perNode map[string]int64) bool {
	n, ok := b.c.Node(leader)
	if !ok {
		return false
	}
	key, ok := n.SplitHint(id)
	if !ok {
		return false
	}
	newID, err := b.c.SplitRange(id, key, b.opts.ActionTimeout)
	b.record(BalancerAction{Round: b.round, Kind: "split", Range: id, New: newID, Key: key, Err: err})
	if err != nil {
		return true // the action ran (and consumed the round) even if it failed
	}
	// Both halves start under the same cohort, and the new half's own
	// election may land on the origin's leader; parallelism is certain
	// once the new half's leadership lands on the least-loaded member.
	cohort := b.c.CurrentLayout().Cohort(newID)
	to := leastLoaded(cohort, perNode, leader)
	if to != "" && to != b.c.LeaderOf(newID) {
		err = b.c.TransferLeadership(newID, to, b.opts.ActionTimeout)
		b.record(BalancerAction{Round: b.round, Kind: "transfer", Range: newID, From: leader, To: to, Err: err})
	}
	return true
}

// offloadNode relieves an overloaded leader: its least-loaded led range
// either moves its cohort membership to a node outside the cohort (when
// the ring has one) or transfers leadership to the least-loaded cohort
// member.
func (b *Balancer) offloadNode(node string, led []uint32, loads map[uint32]rangeLoad, perNode map[string]int64) bool {
	// Pick the led range with the smallest load: moving it relieves the
	// node while disturbing the least traffic.
	var pick uint32
	var pickLoad int64 = -1
	for _, id := range led {
		if d := loads[id].delta; pickLoad < 0 || d < pickLoad {
			pick, pickLoad = id, d
		}
	}
	if pickLoad < 0 {
		return false
	}
	l := b.c.CurrentLayout()
	cohort := l.Cohort(pick)
	// Prefer a true membership move to a node outside the cohort.
	var outside []string
	for _, nd := range l.Nodes() {
		if !slices.Contains(cohort, nd) {
			outside = append(outside, nd)
		}
	}
	if to := leastLoaded(outside, perNode, node); to != "" {
		err := b.c.MoveRange(pick, node, to, b.opts.ActionTimeout)
		b.record(BalancerAction{Round: b.round, Kind: "move", Range: pick, From: node, To: to, Err: err})
		if err == nil {
			err = b.c.TransferLeadership(pick, to, b.opts.ActionTimeout)
			if err != nil {
				b.record(BalancerAction{Round: b.round, Kind: "transfer", Range: pick, From: node, To: to, Err: err})
			}
		}
		return true
	}
	if to := leastLoaded(cohort, perNode, node); to != "" {
		err := b.c.TransferLeadership(pick, to, b.opts.ActionTimeout)
		b.record(BalancerAction{Round: b.round, Kind: "transfer", Range: pick, From: node, To: to, Err: err})
		return true
	}
	return false
}

// leastLoaded returns the candidate with the lowest sampled leader load,
// excluding `not`; "" if no candidate remains.
func leastLoaded(candidates []string, perNode map[string]int64, not string) string {
	best := ""
	var bestLoad int64
	for _, c := range candidates {
		if c == not {
			continue
		}
		if best == "" || perNode[c] < bestLoad {
			best, bestLoad = c, perNode[c]
		}
	}
	return best
}

// ErrTransferNotTaken reports a leadership transfer after which another
// node still leads: the cohort is reordered home-first and the range has an
// open leader, but not the one asked for. The error names the node leading.
var ErrTransferNotTaken = errors.New("host: leadership transfer did not take")

// TransferLeadership steers range id's leadership to cohort member `to`:
// the published cohort is reordered home-first (a zero-member-delta
// mutation, so no adoption risk beyond the barrier) and the current
// leader steps down; the home-node election tie-break does the rest. When
// another node still leads after three step-downs it returns
// ErrTransferNotTaken.
func (c *Cluster) TransferLeadership(id uint32, to string, timeout time.Duration) error {
	deadline := simtime.Now().Add(timeout)
	published, err := c.mutateLayout(func(l *cluster.Layout) (*cluster.Layout, error) {
		cur := l.Cohort(id)
		if cur == nil {
			return nil, fmt.Errorf("host: no range %d", id)
		}
		if !slices.Contains(cur, to) {
			return nil, fmt.Errorf("host: node %s not in range %d's cohort", to, id)
		}
		if cur[0] == to {
			return nil, errNoChange
		}
		next := []string{to}
		for _, m := range cur {
			if m != to {
				next = append(next, m)
			}
		}
		return l.WithCohort(id, next)
	})
	if err != nil && !errors.Is(err, errNoChange) {
		return err
	}
	if published != nil {
		if err := c.waitAdopted(published.Version(), published.Cohort(id), deadline); err != nil {
			return err
		}
	}
	// The home preference is an election tie-break, so under live load
	// the old leader can re-win a round (and a member whose log is behind
	// cannot win at all); retry, then report who leads. The transfer is an
	// optimization, not a correctness need: the range has an open leader
	// either way.
	for attempt := 0; attempt < 3; attempt++ {
		leader := c.LeaderOf(id)
		if leader == "" || leader == to {
			break
		}
		if ln, ok := c.Node(leader); ok {
			ln.StepDown(id)
		}
		if err := c.waitOpenLeader(id, deadline); err != nil {
			return err
		}
	}
	if leader := c.LeaderOf(id); leader != "" && leader != to {
		return fmt.Errorf("%w: range %d is led by %s, not %s", ErrTransferNotTaken, id, leader, to)
	}
	return nil
}
