// Package sim provides the in-process cluster harness, workload
// generators, and latency measurement used by the test suite, the examples,
// and the benchmark harness that regenerates the paper's evaluation
// (§9, Appendices C and D). A sim cluster runs real Spinnaker (or baseline)
// nodes over the simulated network and logging devices, reproducing the
// paper's 10-node testbed on one box at ~10× reduced latency scale.
//
// On top of the harness live the two adversarial drivers: the nemesis
// (nemesis.go) composes seeded fault schedules — partitions, isolation,
// link faults, crash/restart, disk failure — against concurrent workloads
// whose histories are checked for per-key linearizability, and the
// reconfiguration executor (reconfig.go) grows and rebalances a running
// cluster live (AddNode, SplitRange, MoveRange, Rebalance), optionally
// under the nemesis.
package sim

import (
	"fmt"
	"spinnaker/internal/simtime"
	"sync"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/core"
	"spinnaker/internal/dynamo"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Options configure a simulated cluster (either system).
type Options struct {
	// Nodes is the cluster size (default 3).
	Nodes int
	// Replication is N (default 3).
	Replication int
	// NetworkDelay is the simulated one-way message latency; the default
	// of 50µs stands in for the paper's rack-level 1-GbE switch at ~10×
	// scale (Appendix C).
	NetworkDelay time.Duration
	// MessageCost is the per-message delivery cost serialized on each
	// link (receive-path CPU: syscalls, interrupts, protocol work).
	// Unlike NetworkDelay it does not pipeline, so it bounds per-link
	// message rate; zero keeps the latency-only model.
	MessageCost time.Duration
	// FaultSeed seeds the network's per-link fault RNGs (nemesis
	// scenarios replay a failing run by reusing its seed).
	FaultSeed int64
	// LinkFaults is applied to every node↔node link (drop, duplication,
	// reordering, jitter — see transport.LinkFaults). Client links stay
	// clean: client RPCs are not idempotent, and in a real deployment
	// TCP hides sub-connection faults from them, so injecting duplicates
	// there would fail runs the deployed system cannot exhibit.
	LinkFaults transport.LinkFaults
	// Device is the logging-device latency profile (default instant, for
	// tests; benches pass wal.DeviceHDD / DeviceSSD / DeviceMem).
	Device wal.DeviceProfile
	// CommitPeriod is Spinnaker's commit-message interval.
	CommitPeriod time.Duration
	// PiggybackCommits / DisableGroupCommit / DisableProposalBatching
	// toggle protocol options (ablation benches). DisableProposalBatching
	// caps every propose message at one write.
	PiggybackCommits        bool
	DisableGroupCommit      bool
	DisableProposalBatching bool
	// KeyWidth is the zero-padded decimal width of row keys (default 8).
	KeyWidth int
	// WriteTimeout bounds client writes.
	WriteTimeout time.Duration
	// ReadServiceTime / ReadConcurrency model per-read CPU cost for the
	// latency-knee benchmarks (zero disables).
	ReadServiceTime time.Duration
	ReadConcurrency int
	// SequentialPropose is the Figure 4 ablation: force before proposing.
	SequentialPropose bool
	// DisableSnapshotCatchup is the log-replay ablation: rejoining
	// followers always catch up by entry replay, never by SSTable
	// shipping (the rejoin benchmarks compare both).
	DisableSnapshotCatchup bool
	// Storage knobs, passed through to the engines and the shared log;
	// benchmarks lower them so sustained write loads stay memory-flat
	// (flush → SSTable capture → log segment truncation). MaxTables is
	// the table count that triggers an incremental compaction round.
	FlushBytes    int64
	MaxTables     int
	SegmentBytes  int64
	FlushInterval time.Duration
}

func (o *Options) fillDefaults() {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Replication <= 0 {
		o.Replication = cluster.DefaultReplication
	}
	if o.Replication > o.Nodes {
		o.Replication = o.Nodes
	}
	if o.NetworkDelay < 0 {
		o.NetworkDelay = 0
	}
	if o.Device.Name == "" {
		o.Device = wal.DeviceInstant
	}
	if o.KeyWidth <= 0 {
		o.KeyWidth = 8
	}
}

// nodeNames generates stable node ids.
func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%03d", i)
	}
	return names
}

// SpinnakerCluster is an in-process Spinnaker deployment.
type SpinnakerCluster struct {
	Net   *transport.Network
	Coord *coord.Service
	// Layout is the bootstrap layout. Under live reconfiguration
	// (AddNode / SplitRange / MoveRange / Rebalance) the authoritative
	// layout lives in the coordination service; read it with
	// CurrentLayout.
	Layout *cluster.Layout

	opts Options
	cfg  core.Config

	nodeMu sync.Mutex // guards stores/nodes (nemesis and executor race)
	stores map[string]*core.Stores
	nodes  map[string]*core.Node

	cliMu   sync.Mutex // guards clients/nextCli (NewClient is concurrency-safe)
	clients []*core.Client
	nextCli int

	// layoutCache memoizes the published layout by znode version behind
	// one long-lived session: CurrentLayout sits in the executor's
	// polling loops, and a fresh session + full decode per call would
	// hammer the coordination service during a rebalance.
	layoutCacheMu  sync.Mutex
	layoutSess     *coord.Session
	layoutCache    *cluster.Layout
	layoutCacheVer uint64
}

// NewSpinnakerCluster builds and starts a cluster.
func NewSpinnakerCluster(opts Options) (*SpinnakerCluster, error) {
	opts.fillDefaults()
	names := nodeNames(opts.Nodes)
	layout, err := cluster.Uniform(names, opts.KeyWidth, opts.Replication)
	if err != nil {
		return nil, err
	}
	sc := &SpinnakerCluster{
		Net:    transport.NewNetwork(opts.NetworkDelay),
		Coord:  coord.NewService(0),
		Layout: layout,
		opts:   opts,
		stores: make(map[string]*core.Stores),
		nodes:  make(map[string]*core.Node),
	}
	sc.Net.SetMessageCost(opts.MessageCost)
	sc.Net.SetFaultSeed(opts.FaultSeed)
	if opts.LinkFaults != (transport.LinkFaults{}) {
		for _, a := range names {
			for _, b := range names {
				if a != b {
					sc.Net.SetLinkFaults(a, b, opts.LinkFaults)
				}
			}
		}
	}
	sc.cfg = core.Config{
		Layout:                  layout,
		CommitPeriod:            opts.CommitPeriod,
		PiggybackCommits:        opts.PiggybackCommits,
		DisableGroupCommit:      opts.DisableGroupCommit,
		DisableProposalBatching: opts.DisableProposalBatching,
		WriteTimeout:            opts.WriteTimeout,
		ElectionTimeout:         50 * time.Millisecond,
		RetryInterval:           5 * time.Millisecond,
		ReadServiceTime:         opts.ReadServiceTime,
		ReadConcurrency:         opts.ReadConcurrency,
		SequentialPropose:       opts.SequentialPropose,
		DisableSnapshotCatchup:  opts.DisableSnapshotCatchup,
		FlushBytes:              opts.FlushBytes,
		MaxTables:               opts.MaxTables,
		SegmentBytes:            opts.SegmentBytes,
		FlushInterval:           opts.FlushInterval,
	}
	// Publish the bootstrap layout before any node starts: nodes and
	// clients follow the published layout for live reconfiguration.
	sess := sc.Coord.Connect()
	err = core.PublishLayout(sess, layout)
	sess.Close()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		sc.stores[name] = core.NewMemStores(opts.Device)
		if err := sc.startNode(name); err != nil {
			sc.Stop()
			return nil, err
		}
	}
	return sc, nil
}

// CurrentLayout returns the layout published in the coordination service
// (the authoritative one under live reconfiguration), falling back to the
// bootstrap layout. Decodes are memoized by znode version.
func (sc *SpinnakerCluster) CurrentLayout() *cluster.Layout {
	sc.layoutCacheMu.Lock()
	defer sc.layoutCacheMu.Unlock()
	if sc.layoutSess == nil || sc.layoutSess.Closed() {
		sc.layoutSess = sc.Coord.Connect()
	}
	data, ver, err := sc.layoutSess.GetVersion(core.LayoutPath)
	if err != nil {
		if sc.layoutCache != nil {
			return sc.layoutCache
		}
		return sc.Layout
	}
	if sc.layoutCache != nil && ver == sc.layoutCacheVer {
		return sc.layoutCache
	}
	l, err := cluster.Decode(data)
	if err != nil {
		return sc.Layout
	}
	sc.layoutCache, sc.layoutCacheVer = l, ver
	return l
}

func (sc *SpinnakerCluster) startNode(name string) error {
	cfg := sc.cfg
	cfg.ID = name
	// Bootstrap from the current published layout: a node restarting
	// after a reconfiguration must recover the ranges it serves *now*,
	// not the ones from the original layout.
	cfg.Layout = sc.CurrentLayout()
	sc.nodeMu.Lock()
	defer sc.nodeMu.Unlock()
	n, err := core.NewNode(cfg, sc.stores[name], sc.Net.Join(name), sc.Coord)
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	sc.nodes[name] = n
	return nil
}

// WaitReady blocks until every range of the current layout has an open
// leader.
func (sc *SpinnakerCluster) WaitReady(timeout time.Duration) error {
	deadline := simtime.Now().Add(timeout)
	for _, r := range sc.CurrentLayout().RangeIDs() {
		for {
			if leader := sc.LeaderOf(r); leader != "" {
				if n, ok := sc.Node(leader); ok {
					if st, ok := n.ReplicaStats(r); ok && st.Role == core.RoleLeader && st.Open {
						break
					}
				}
			}
			if simtime.Now().After(deadline) {
				return fmt.Errorf("sim: range %d has no open leader after %v", r, timeout)
			}
			simtime.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// LeaderOf returns the registered leader of a range, or "".
func (sc *SpinnakerCluster) LeaderOf(rangeID uint32) string {
	sess := sc.Coord.Connect()
	defer sess.Close()
	data, err := sess.Get(fmt.Sprintf("/ranges/%d/leader", rangeID))
	if err != nil {
		return ""
	}
	return string(data)
}

// clientCallTimeout bounds a client call that gets no answer: one into a
// partition, or to a leader stalled without a quorum. It is not what detects
// a crashed node — the transport reports a closed peer at once and the
// client follows the leader znode — so it no longer figures in measured
// unavailability (Table 1 likewise excludes the failure-detection timeout).
const clientCallTimeout = 250 * time.Millisecond

// NewClient attaches a fresh client (its own endpoint and session); safe
// for concurrent use.
func (sc *SpinnakerCluster) NewClient() *core.Client {
	sc.cliMu.Lock()
	defer sc.cliMu.Unlock()
	sc.nextCli++
	ep := sc.Net.Join(fmt.Sprintf("sp-client-%d", sc.nextCli))
	ep.SetCallTimeout(clientCallTimeout)
	c := core.NewClient(sc.CurrentLayout(), ep, sc.Coord, int64(sc.nextCli))
	sc.clients = append(sc.clients, c)
	return c
}

// Node returns a running node by id.
func (sc *SpinnakerCluster) Node(id string) (*core.Node, bool) {
	sc.nodeMu.Lock()
	defer sc.nodeMu.Unlock()
	n, ok := sc.nodes[id]
	return n, ok
}

// Nodes lists running node ids.
func (sc *SpinnakerCluster) Nodes() []string {
	sc.nodeMu.Lock()
	defer sc.nodeMu.Unlock()
	out := make([]string, 0, len(sc.nodes))
	for name := range sc.nodes {
		out = append(out, name)
	}
	return out
}

// PartitionNodes cuts every link between the two groups (both
// directions); nodes within a group, and nodes in neither group, keep
// full connectivity.
func (sc *SpinnakerCluster) PartitionNodes(a, b []string) {
	for _, x := range a {
		for _, y := range b {
			if x != y {
				sc.Net.Partition(x, y)
			}
		}
	}
}

// Isolate cuts a node from every other endpoint, clients included.
func (sc *SpinnakerCluster) Isolate(id string) { sc.Net.Isolate(id) }

// HealAll removes every partition, symmetric and one-way.
func (sc *SpinnakerCluster) HealAll() { sc.Net.HealAll() }

// CrashNode fails a node: process crash plus loss of the unforced log tail.
func (sc *SpinnakerCluster) CrashNode(id string) error {
	sc.nodeMu.Lock()
	n, ok := sc.nodes[id]
	if !ok {
		sc.nodeMu.Unlock()
		return fmt.Errorf("sim: node %s is not running", id)
	}
	delete(sc.nodes, id)
	stores := sc.stores[id]
	sc.nodeMu.Unlock()
	n.Crash()
	stores.Crash()
	return nil
}

// FailDisk destroys a crashed node's stable storage (§6.1 disk failure).
func (sc *SpinnakerCluster) FailDisk(id string) {
	sc.nodeMu.Lock()
	stores := sc.stores[id]
	sc.nodeMu.Unlock()
	stores.Fail()
}

// RestartNode restarts a crashed node over its surviving stores; it will
// run local recovery and catch up.
func (sc *SpinnakerCluster) RestartNode(id string) error {
	if _, ok := sc.Node(id); ok {
		return fmt.Errorf("sim: node %s already running", id)
	}
	return sc.startNode(id)
}

// Key formats a numeric row key at the cluster's key width.
func (sc *SpinnakerCluster) Key(i int) string {
	return fmt.Sprintf("%0*d", sc.opts.KeyWidth, i)
}

// Stop shuts everything down.
func (sc *SpinnakerCluster) Stop() {
	sc.cliMu.Lock()
	clients := sc.clients
	sc.clients = nil
	sc.cliMu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	sc.nodeMu.Lock()
	nodes := make([]*core.Node, 0, len(sc.nodes))
	for _, n := range sc.nodes {
		nodes = append(nodes, n)
	}
	sc.nodeMu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	sc.layoutCacheMu.Lock()
	if sc.layoutSess != nil {
		sc.layoutSess.Close()
	}
	sc.layoutCacheMu.Unlock()
	sc.Coord.Stop()
	sc.Net.Close()
}

// DynamoCluster is an in-process deployment of the eventually consistent
// baseline over the same substrates.
type DynamoCluster struct {
	Net    *transport.Network
	Layout *cluster.Layout

	opts   Options
	stores map[string]*core.Stores
	nodes  map[string]*dynamo.Node

	cliMu   sync.Mutex // guards clients/nextCli (NewClient is concurrency-safe)
	clients []*dynamo.Client
	nextCli int
}

// NewDynamoCluster builds and starts a baseline cluster.
func NewDynamoCluster(opts Options) (*DynamoCluster, error) {
	opts.fillDefaults()
	names := nodeNames(opts.Nodes)
	layout, err := cluster.Uniform(names, opts.KeyWidth, opts.Replication)
	if err != nil {
		return nil, err
	}
	dc := &DynamoCluster{
		Net:    transport.NewNetwork(opts.NetworkDelay),
		Layout: layout,
		opts:   opts,
		stores: make(map[string]*core.Stores),
		nodes:  make(map[string]*dynamo.Node),
	}
	for _, name := range names {
		dc.stores[name] = core.NewMemStores(opts.Device)
		if err := dc.startNode(name); err != nil {
			dc.Stop()
			return nil, err
		}
	}
	return dc, nil
}

func (dc *DynamoCluster) startNode(name string) error {
	n, err := dynamo.NewNode(dynamo.Config{
		ID:                 name,
		Layout:             dc.Layout,
		DisableGroupCommit: dc.opts.DisableGroupCommit,
		ReadServiceTime:    dc.opts.ReadServiceTime,
		ReadConcurrency:    dc.opts.ReadConcurrency,
		FlushBytes:         dc.opts.FlushBytes,
		MaxTables:          dc.opts.MaxTables,
		SegmentBytes:       dc.opts.SegmentBytes,
		FlushInterval:      dc.opts.FlushInterval,
	}, dc.stores[name], dc.Net.Join(name))
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	dc.nodes[name] = n
	return nil
}

// NewClient attaches a fresh baseline client; safe for concurrent use.
func (dc *DynamoCluster) NewClient() *dynamo.Client {
	dc.cliMu.Lock()
	defer dc.cliMu.Unlock()
	dc.nextCli++
	ep := dc.Net.Join(fmt.Sprintf("dy-client-%d", dc.nextCli))
	ep.SetCallTimeout(clientCallTimeout)
	c := dynamo.NewClient(dc.Layout, ep, int64(dc.nextCli))
	dc.clients = append(dc.clients, c)
	return c
}

// CrashNode fails a node.
func (dc *DynamoCluster) CrashNode(id string) error {
	n, ok := dc.nodes[id]
	if !ok {
		return fmt.Errorf("sim: node %s is not running", id)
	}
	n.Crash()
	dc.stores[id].Crash()
	delete(dc.nodes, id)
	return nil
}

// RestartNode restarts a crashed node.
func (dc *DynamoCluster) RestartNode(id string) error {
	if _, ok := dc.nodes[id]; ok {
		return fmt.Errorf("sim: node %s already running", id)
	}
	return dc.startNode(id)
}

// Key formats a numeric row key at the cluster's key width.
func (dc *DynamoCluster) Key(i int) string {
	return fmt.Sprintf("%0*d", dc.opts.KeyWidth, i)
}

// Stop shuts everything down.
func (dc *DynamoCluster) Stop() {
	dc.cliMu.Lock()
	clients := dc.clients
	dc.clients = nil
	dc.cliMu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, n := range dc.nodes {
		n.Stop()
	}
	dc.Net.Close()
}
