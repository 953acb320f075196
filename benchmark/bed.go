package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/core"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// The benchmark's cluster: 3 nodes, every range replicated on all 3, two
// client connections and one audit connection.
var (
	nodeIDs   = []string{"n0", "n1", "n2"}
	clientIDs = []string{"c0", "c1"}
	// endpointIDs is everything that attaches to the transport.
	endpointIDs = append(append([]string{auditID}, nodeIDs...), clientIDs...)
)

const (
	auditID           = "audit"
	keyWidth          = 8
	keySpace          = 100_000_000 // 10^keyWidth
	clientCallTimeout = 250 * time.Millisecond
)

// nodeConfig is the one node configuration every workload runs. No delay
// is injected anywhere (simtime.Sleep spin-burns a core for waits ≤2ms),
// so latency is processor time only.
func nodeConfig(layout *cluster.Layout) core.Config {
	return core.Config{
		Layout:          layout,
		CommitPeriod:    25 * time.Millisecond,
		FlushBytes:      1 << 20,
		SegmentBytes:    4 << 20,
		FlushInterval:   50 * time.Millisecond,
		ElectionTimeout: 50 * time.Millisecond,
		RetryInterval:   5 * time.Millisecond,
	}
}

// bed is a running cluster wired from the public constructors. It owns the
// transport.Endpoint and wal.SegmentStore values, which is what lets a
// traced run wrap them from outside (tr != nil).
type bed struct {
	layout *cluster.Layout
	coord  *coord.Service
	cfg    core.Config
	tr     *tracer

	net     *transport.Network            // in-process transport; nil with TCP
	tcp     map[string]transport.Endpoint // loopback endpoints by id; nil in-process
	dir     string                        // file stores' directory; "" with mem stores
	memSegs map[string]*wal.MemSegmentStore

	stopOnce sync.Once

	mu     sync.Mutex
	stores map[string]*core.Stores
	nodes  map[string]*core.Node
	// dead accumulates the counters of crashed node instances, so that
	// diffs of counters stay monotonic across restarts.
	dead counters
}

// newBed starts the cluster and waits until every range is led by its home
// node. With files the nodes run over file-backed stores under a fresh
// directory in dataDir, otherwise over in-memory stores; with tcp they and
// the clients talk over loopback TCP, otherwise over the in-process network.
func newBed(files, tcp bool, dataDir string, tr *tracer) (_ *bed, err error) {
	layout, err := cluster.Uniform(nodeIDs, keyWidth, len(nodeIDs))
	if err != nil {
		return nil, err
	}
	b := &bed{
		layout:  layout,
		coord:   coord.NewService(0),
		cfg:     nodeConfig(layout),
		tr:      tr,
		memSegs: make(map[string]*wal.MemSegmentStore),
		stores:  make(map[string]*core.Stores),
		nodes:   make(map[string]*core.Node),
	}
	defer func() {
		if err != nil {
			b.stop()
		}
	}()
	if files {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		if b.dir, err = os.MkdirTemp(dataDir, "bed-"); err != nil {
			return nil, err
		}
	}
	if tcp {
		if b.tcp, err = listenAll(endpointIDs); err != nil {
			return nil, err
		}
	} else {
		b.net = transport.NewNetwork(0)
	}
	sess := b.coord.Connect()
	err = core.PublishLayout(sess, layout)
	sess.Close()
	if err != nil {
		return nil, err
	}
	for _, id := range nodeIDs {
		var st *core.Stores
		if files {
			if st, err = core.NewFileStores(b.dir + "/" + id); err != nil {
				return nil, err
			}
		} else {
			st = core.NewMemStores(wal.DeviceInstant)
			// Kept unwrapped: core.Stores.Crash type-asserts on
			// Segments and would silently skip a decorated store.
			b.memSegs[id] = st.Segments.(*wal.MemSegmentStore)
		}
		if tr != nil {
			st.Segments = tracedSegments{st.Segments, tr}
		}
		b.stores[id] = st
		if err := b.startNode(id); err != nil {
			return nil, err
		}
	}
	return b, b.settleLeaders(10 * time.Second)
}

// listenAll opens one loopback TCP endpoint per id. Every id needs an
// address before the first endpoint listens (replies dial back), so the
// ports are reserved first and the whole set is retried if another
// process takes one of them in between.
func listenAll(ids []string) (map[string]transport.Endpoint, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		addrs := make(map[string]string, len(ids))
		for _, id := range ids {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("reserve port: %w", err)
			}
			addrs[id] = ln.Addr().String()
			ln.Close()
		}
		eps := make(map[string]transport.Endpoint, len(ids))
		for _, id := range ids {
			ep, err := transport.ListenTCP(id, addrs)
			if err != nil {
				lastErr = err
				break
			}
			eps[id] = ep
		}
		if len(eps) == len(ids) {
			return eps, nil
		}
		for _, ep := range eps {
			ep.Close()
		}
		if !errors.Is(lastErr, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, lastErr
}

// endpoint returns id's attachment to the transport, decorated in a traced
// run. In-process, joining an id again replaces its endpoint, which is how
// a restarted node comes back.
func (b *bed) endpoint(id string, client bool) transport.Endpoint {
	var ep transport.Endpoint
	if b.tcp != nil {
		ep = b.tcp[id]
	} else {
		local := b.net.Join(id)
		if client {
			local.SetCallTimeout(clientCallTimeout)
		}
		ep = local
	}
	if b.tr != nil {
		ep = b.tr.wrapEndpoint(ep)
	}
	return ep
}

func (b *bed) startNode(id string) error {
	cfg := b.cfg
	cfg.ID = id
	n, err := core.NewNode(cfg, b.stores[id], b.endpoint(id, false), b.coord)
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	b.mu.Lock()
	b.nodes[id] = n
	b.mu.Unlock()
	return nil
}

func (b *bed) node(id string) *core.Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nodes[id]
}

func (b *bed) liveNodes() []*core.Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*core.Node, 0, len(b.nodes))
	for _, id := range nodeIDs {
		if n := b.nodes[id]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// openLeader returns the node that leads rangeID and is open for writes,
// or "" while there is none.
func (b *bed) openLeader(sess *coord.Session, rangeID uint32) string {
	data, err := sess.Get(fmt.Sprintf("/ranges/%d/leader", rangeID))
	if err != nil {
		return ""
	}
	n := b.node(string(data))
	if n == nil {
		return ""
	}
	if st, ok := n.ReplicaStats(rangeID); ok && st.Role == core.RoleLeader && st.Open {
		return string(data)
	}
	return ""
}

// settleLeaders waits until every range is led, open for writes, by its
// home node, asking any other leader to step down. Which node wins the
// first election depends on start-up timing, and a node that leads two
// ranges behaves measurably unlike one that leads one (write-mem's unloaded
// p95 halves, its loaded p99 rises by half), so the placement is made the
// same on every run: the layout's own.
func (b *bed) settleLeaders(timeout time.Duration) error {
	sess := b.coord.Connect()
	defer sess.Close()
	deadline := time.Now().Add(timeout)
	for _, r := range b.layout.RangeIDs() {
		home := b.layout.HomeNode(r)
		for {
			leader := b.openLeader(sess, r)
			if leader == home {
				break
			}
			if leader != "" {
				b.node(leader).StepDown(r)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("range %d is not led by its home node %s after %v", r, home, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// crash fails a node as a power cut would: the process is gone and the log
// loses its unforced tail. Only in-memory beds crash.
func (b *bed) crash(id string) {
	b.mu.Lock()
	n := b.nodes[id]
	delete(b.nodes, id)
	b.mu.Unlock()
	n.Crash()
	b.memSegs[id].Crash()
	b.mu.Lock()
	b.dead.add(n.Metrics())
	b.mu.Unlock()
}

// quiesce waits until every replica of every range has committed the same
// LSN with nothing pending, then one more commit period so that followers
// have applied it.
func (b *bed) quiesce(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, r := range b.layout.RangeIDs() {
		for {
			settled := true
			var first wal.LSN
			nodes := b.liveNodes()
			for i, n := range nodes {
				st, ok := n.ReplicaStats(r)
				if !ok || st.Pending != 0 || st.LastCommitted != st.LastLSN {
					settled = false
				}
				if i == 0 {
					first = st.LastCommitted
				} else if st.LastCommitted != first {
					settled = false
				}
			}
			if settled && len(nodes) == len(nodeIDs) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("range %d did not quiesce within %v", r, timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	time.Sleep(2 * b.cfg.CommitPeriod)
	return nil
}

// stop shuts the cluster down and removes its directory; it is safe on a
// partly built bed and when called again.
func (b *bed) stop() {
	b.stopOnce.Do(func() {
		for _, n := range b.liveNodes() {
			n.Stop()
		}
		for _, ep := range b.tcp {
			ep.Close()
		}
		if b.net != nil {
			b.net.Close()
		}
		b.coord.Stop()
		if b.dir != "" {
			os.RemoveAll(b.dir)
		}
	})
}
