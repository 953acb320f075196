package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spinnaker/internal/simtime"
)

// Network is a simulated in-process network. Each ordered pair of endpoints
// communicates over a dedicated link that preserves send order and applies
// a configurable one-way propagation delay — the rack-level 1-GbE switch of
// the paper's test cluster (Appendix C), scaled down. Links pipeline:
// messages in flight overlap, so the delay models latency, not bandwidth.
//
// On top of the clean TCP-like base, a seeded per-link fault plane (see
// LinkFaults) can drop, duplicate, reorder, and delay messages, and links
// can be partitioned symmetrically (Partition/Isolate) or one way
// (PartitionOneWay) — the substrate for nemesis scenarios.
type Network struct {
	delay time.Duration

	mu            sync.Mutex
	eps           map[string]*LocalEndpoint
	links         map[[2]string]*link
	cut           map[[2]string]bool // unordered pair → partitioned
	cutDir        map[[2]string]bool // ordered (from, to) → partitioned
	faultSeed     int64
	defaultFaults LinkFaults
	linkFaults    map[[2]string]LinkFaults // ordered (from, to) → override
	msgs          atomic.Int64
	dropped       atomic.Int64
	callSeq       atomic.Uint64
	closedAll     bool
}

// NewNetwork returns a network whose links have the given one-way delay.
func NewNetwork(delay time.Duration) *Network {
	return &Network{
		delay:      delay,
		eps:        make(map[string]*LocalEndpoint),
		links:      make(map[[2]string]*link),
		cut:        make(map[[2]string]bool),
		cutDir:     make(map[[2]string]bool),
		linkFaults: make(map[[2]string]LinkFaults),
	}
}

// Join attaches a node and returns its endpoint. Re-joining an id replaces
// the previous endpoint (a restarted node).
func (n *Network) Join(id string) *LocalEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &LocalEndpoint{id: id, net: n, calls: newCalls()}
	n.eps[id] = ep
	return ep
}

// Partition cuts connectivity between a and b (both directions); messages
// in flight or sent while cut are dropped, as they would be by a TCP
// connection that resets during the outage.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[pairKey(a, b)] = true
}

// Heal restores connectivity between a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, pairKey(a, b))
}

// Isolate cuts a from every current endpoint.
func (n *Network) Isolate(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.eps {
		if other != id {
			n.cut[pairKey(id, other)] = true
		}
	}
}

// HealAll removes every partition, symmetric and one-way. Link fault
// configurations are separate; see ClearFaults.
func (n *Network) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut = make(map[[2]string]bool)
	n.cutDir = make(map[[2]string]bool)
}

// Stats returns totals of delivered and dropped messages.
func (n *Network) Stats() (delivered, dropped int64) {
	return n.msgs.Load(), n.dropped.Load()
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// link carries messages for one ordered (from, to) pair. rng drives the
// link's fault decisions; it is touched only by the link's delivery
// goroutine, so the decision sequence is a deterministic function of the
// fault seed and the messages carried.
type link struct {
	ch   chan timedMsg
	stop chan struct{}
	rng  *rand.Rand
}

type timedMsg struct {
	m   Message
	due time.Time
}

const linkBuffer = 4096

// getLink returns (creating if needed) the link from → to.
func (n *Network) getLink(from, to string) *link {
	key := [2]string{from, to}
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[key]; ok {
		return l
	}
	l := &link{
		ch:   make(chan timedMsg, linkBuffer),
		stop: make(chan struct{}),
		rng:  newLinkRNG(n.faultSeed, from, to),
	}
	if n.closedAll {
		// Straggler send during teardown: an inert link (no delivery
		// goroutine, not registered) that silently swallows the traffic.
		close(l.stop)
		return l
	}
	n.links[key] = l
	go n.run(l, to)
	return l
}

// Close shuts the network down: every link's delivery goroutine exits, and
// links created by straggler sends afterwards are inert (no goroutine).
// Messages still in flight are dropped. Cluster teardown calls this;
// without it, benchmarks cycling many clusters in one process accumulate
// blocked delivery goroutines, each pinning its dead cluster's entire heap
// (endpoints → nodes → memtables → log buffers) into the GC live set.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closedAll {
		return
	}
	n.closedAll = true
	for _, l := range n.links {
		close(l.stop)
	}
	n.links = make(map[[2]string]*link)
}

// run delivers messages for a link in order, honoring per-message due
// times. A constant per-link delay preserves FIFO order on a clean link;
// the fault plane, when configured, may drop, duplicate, reorder, or
// further delay individual messages.
func (n *Network) run(l *link, to string) {
	for {
		select {
		case <-l.stop:
			return
		case tm := <-l.ch:
			if !n.deliverFaulty(l, to, tm, true) {
				return // link stopped while holding a reordered message
			}
		}
	}
}

// deliverFaulty rolls one message's fault decisions on the link's RNG and
// delivers it accordingly. Decisions are drawn in a fixed order per
// message, so for a given seed, fault configuration, and message sequence
// the outcome replays. allowReorder is false for a message already
// overtaking a held-back one (reordering would recurse); it still rolls
// its own drop/dup/jitter. Returns false if the link stopped mid-hold.
func (n *Network) deliverFaulty(l *link, to string, tm timedMsg, allowReorder bool) bool {
	f := n.faultsFor(tm.m.From, to)
	if f == (LinkFaults{}) {
		n.deliver(to, tm, 0, false)
		return true
	}
	drop := l.rng.Float64() < f.DropProb
	dup := l.rng.Float64() < f.DupProb
	reorder := allowReorder && l.rng.Float64() < f.ReorderProb
	var jitter time.Duration
	if f.Jitter > 0 {
		jitter = time.Duration(l.rng.Int63n(int64(f.Jitter)))
	}
	if drop {
		n.dropped.Add(1)
		return true
	}
	if reorder {
		// Hold this message back so its successor (if one arrives in
		// time) overtakes it; the successor rolls its own faults.
		select {
		case next := <-l.ch:
			if !n.deliverFaulty(l, to, next, false) {
				return false
			}
			n.deliver(to, tm, jitter, dup)
		case <-time.After(ReorderHold):
			n.deliver(to, tm, jitter, dup)
		case <-l.stop:
			return false
		}
		return true
	}
	n.deliver(to, tm, jitter, dup)
	return true
}

// deliver waits out a message's due time (plus fault jitter), then
// dispatches it — twice when the duplication fault fired — unless the
// destination is gone or partitioned away.
func (n *Network) deliver(to string, tm timedMsg, jitter time.Duration, dup bool) {
	simtime.Sleep(time.Until(tm.due) + jitter)
	n.mu.Lock()
	ep, ok := n.eps[to]
	cut := n.cutLocked(tm.m.From, to)
	n.mu.Unlock()
	if !ok || cut || ep.closed.Load() {
		n.dropped.Add(1)
		return
	}
	n.msgs.Add(1)
	// Fast path: the payload slice is handed to the receiver as-is, no
	// defensive copy. Receivers decode zero-copy (payload bytes flow into
	// the commit queue and memtable), which is safe because a payload is
	// never written after encode — the sender builds a fresh buffer per
	// message and every consumer treats it as immutable.
	ep.calls.dispatch(tm.m, &ep.handler)
	if dup {
		// Duplication fault only (never on the clean path): give the
		// second dispatch its own payload so the two deliveries cannot
		// alias each other through zero-copy decode — a real network
		// duplicates bytes, not buffers.
		n.msgs.Add(1)
		d := tm.m
		if len(d.Payload) > 0 {
			d.Payload = append([]byte(nil), d.Payload...)
		}
		ep.calls.dispatch(d, &ep.handler)
	}
}

// LocalEndpoint is a node's attachment to a Network.
type LocalEndpoint struct {
	id      string
	net     *Network
	handler atomic.Value // Handler
	closed  atomic.Bool
	calls   calls
}

// SetCallTimeout overrides the per-Call deadline; zero restores the
// default. The deadline bounds a call into a partition or to a stalled peer;
// a closed or crashed peer is reported at once (ErrPeerClosed) and does not
// wait for it.
func (e *LocalEndpoint) SetCallTimeout(d time.Duration) {
	e.calls.timeout.Store(int64(d))
}

// ID implements Endpoint.
func (e *LocalEndpoint) ID() string { return e.id }

// SetHandler implements Endpoint.
func (e *LocalEndpoint) SetHandler(h Handler) { e.handler.Store(h) }

// Send implements Endpoint.
func (e *LocalEndpoint) Send(m Message) error {
	if e.closed.Load() {
		return errSendClosed
	}
	m.From = e.id
	e.net.mu.Lock()
	dst, known := e.net.eps[m.To]
	cut := e.net.cutLocked(e.id, m.To)
	e.net.mu.Unlock()
	if !known {
		return notSent(fmt.Errorf("%w: %s", ErrUnknownNode, m.To))
	}
	if cut {
		// A TCP send into a partition buffers and eventually times
		// out; the message never arrives. Model as a silent drop.
		e.net.dropped.Add(1)
		return nil
	}
	if dst.closed.Load() {
		// Connection refused: the peer closed or crashed and has not
		// re-joined. Nothing is enqueued.
		e.net.dropped.Add(1)
		return errSendRefused
	}
	l := e.net.getLink(e.id, m.To)
	select {
	case l.ch <- timedMsg{m: m, due: simtime.Now().Add(e.net.delay)}:
		return nil
	default:
		// Link buffer overflow: shed load like a saturated socket.
		e.net.dropped.Add(1)
		return notSent(fmt.Errorf("transport: link %s→%s overloaded", e.id, m.To))
	}
}

// Call implements Endpoint. Ids come from one network-wide sequence, so a
// reply addressed to an endpoint's previous incarnation matches no call of
// the one that re-joined under its id.
func (e *LocalEndpoint) Call(m Message) (Message, error) {
	return e.calls.call(e, e.net.callSeq.Add(1), m)
}

// Reply implements Endpoint.
func (e *LocalEndpoint) Reply(req, m Message) error { return e.Send(asReply(req, m)) }

// Close implements Endpoint.
func (e *LocalEndpoint) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		close(e.calls.done)
		e.net.resetCallsTo(e)
	}
	return nil
}

// resetCallsTo is the connection reset that the peers of a closing endpoint
// see: their calls in flight to it fail now instead of waiting out the call
// timeout. Ordering makes it complete: a Call registers itself before it
// sends, and Send refuses once dst.closed is set, so every call that got
// past Send is in its endpoint's pending set by the time this scans it. A
// peer partitioned from dst is skipped — no reset crosses a partition, and a
// TCP peer's death behind one goes unseen too — as is everything when dst was
// already replaced by a re-join.
func (n *Network) resetCallsTo(dst *LocalEndpoint) {
	n.mu.Lock()
	var peers []*LocalEndpoint
	if n.eps[dst.id] == dst {
		for id, ep := range n.eps {
			if ep != dst && !n.cutLocked(dst.id, id) {
				peers = append(peers, ep)
			}
		}
	}
	n.mu.Unlock()
	for _, ep := range peers {
		ep.calls.reset(dst.id)
	}
}

var _ Endpoint = (*LocalEndpoint)(nil)
