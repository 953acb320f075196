// Package host assembles and operates a Spinnaker cluster inside one
// process: coordination service, network, N nodes over memory or file
// stores, the published layout, client attachment, crash/restart, and the
// production control loops that act on a running cluster — the
// reconfiguration executor (reconfig.go: AddNode, SplitRange, MoveRange,
// Rebalance), the load balancer (balancer.go) and the admin-plane source
// (admin.go). It is the one assembly outside benchmark/: the embedded API
// (package spinnaker), cmd/spinnaker-server and the nemesis all run a
// host.Cluster, so what is tested is what is served. The harness (nemesis,
// workloads) is internal/sim. What an in-process cluster simulates is set
// here, at the nodes' seams: network and logging device.
package host

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/core"
	"spinnaker/internal/simtime"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Options configure a cluster.
type Options struct {
	// Dir, when set, makes the cluster a deployment: every node keeps its
	// log, metadata and SSTables in files under Dir/<node> and recovers
	// from them on the next start, and timeouts take deployment values
	// (core's default election and retry intervals, a 1 s client call
	// timeout) instead of the harness's ~10× reduced scale. Empty means
	// memory stores with the Device latency profile.
	Dir string
	// SessionTimeout is the coordination service's session expiry (the
	// server uses 2 s, the paper's Zookeeper timeout). Zero disables
	// timer-based expiry: harnesses crash nodes explicitly.
	SessionTimeout time.Duration
	// Nodes is the cluster size (default 3).
	Nodes int
	// Replication is N (default 3).
	Replication int
	// NetworkDelay is the simulated one-way message latency (default 0;
	// 50µs stands in for the paper's rack-level 1-GbE switch at ~10×
	// scale, Appendix C).
	NetworkDelay time.Duration
	// FaultSeed seeds the network's per-link fault RNGs (nemesis
	// scenarios replay a failing run by reusing its seed).
	FaultSeed int64
	// LinkFaults is applied to every node↔node link (drop, duplication,
	// reordering, jitter — see transport.LinkFaults). Client links stay
	// clean: client RPCs are not idempotent, and in a real deployment
	// TCP hides sub-connection faults from them, so injecting duplicates
	// there would fail runs the deployed system cannot exhibit.
	LinkFaults transport.LinkFaults
	// Device is the logging-device latency profile (default instant; the
	// embedded API's LogDevice picks wal.DeviceHDD / DeviceSSD / DeviceMem).
	Device wal.DeviceProfile
	// CommitPeriod is Spinnaker's commit-message interval.
	CommitPeriod time.Duration
	// PiggybackCommits carries the commit LSN on propose messages (the
	// embedded API's option).
	PiggybackCommits bool
	// KeyWidth is the zero-padded decimal width of row keys (default 8).
	KeyWidth int
	// WriteTimeout bounds client writes.
	WriteTimeout time.Duration
	// DisableSnapshotCatchup is the log-replay ablation: rejoining
	// followers always catch up by entry replay, never by SSTable
	// shipping (the truncated-rejoin scenario runs both).
	DisableSnapshotCatchup bool
	// Storage knobs, passed through to the engines and the shared log;
	// harness scenarios lower them so flushes, segment rolls and log
	// truncation happen within a run. MaxTables is the table count that
	// triggers an incremental compaction round.
	FlushBytes    int64
	MaxTables     int
	SegmentBytes  int64
	FlushInterval time.Duration
}

// FillDefaults replaces unset fields with their defaults.
func (o *Options) FillDefaults() {
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

// nodeNames generates the stable ids of an n-node cluster.
func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = nodeName(i)
	}
	return names
}

func nodeName(i int) string { return fmt.Sprintf("node%03d", i) }

// Cluster is an in-process Spinnaker deployment.
type Cluster struct {
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
	// one long-lived session: CurrentLayout and LeaderOf sit in the
	// executor's and balancer's polling loops, and a fresh session (plus,
	// for the layout, a full decode) per call would hammer the
	// coordination service during a rebalance.
	layoutCacheMu  sync.Mutex
	layoutSess     *coord.Session
	layoutCache    *cluster.Layout
	layoutCacheVer uint64
}

// New builds and starts a cluster.
func New(opts Options) (*Cluster, error) {
	opts.FillDefaults()
	names := nodeNames(opts.Nodes)
	layout, err := cluster.Uniform(names, opts.KeyWidth, opts.Replication)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Net:    transport.NewNetwork(opts.NetworkDelay),
		Coord:  coord.NewService(opts.SessionTimeout),
		Layout: layout,
		opts:   opts,
		stores: make(map[string]*core.Stores),
		nodes:  make(map[string]*core.Node),
	}
	c.Net.SetFaultSeed(opts.FaultSeed)
	if opts.LinkFaults != (transport.LinkFaults{}) {
		for _, a := range names {
			for _, b := range names {
				if a != b {
					c.Net.SetLinkFaults(a, b, opts.LinkFaults)
				}
			}
		}
	}
	c.cfg = core.Config{
		Layout:                 layout,
		CommitPeriod:           opts.CommitPeriod,
		PiggybackCommits:       opts.PiggybackCommits,
		WriteTimeout:           opts.WriteTimeout,
		DisableSnapshotCatchup: opts.DisableSnapshotCatchup,
		FlushBytes:             opts.FlushBytes,
		MaxTables:              opts.MaxTables,
		SegmentBytes:           opts.SegmentBytes,
		FlushInterval:          opts.FlushInterval,
	}
	if opts.Dir == "" {
		// Harness scale; a deployment keeps core's defaults.
		c.cfg.ElectionTimeout = 50 * time.Millisecond
		c.cfg.RetryInterval = 5 * time.Millisecond
	}
	// Publish the bootstrap layout before any node starts: nodes and
	// clients follow the published layout for live reconfiguration.
	sess := c.Coord.Connect()
	err = core.PublishLayout(sess, layout)
	sess.Close()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		if c.stores[name], err = c.newStores(name); err == nil {
			err = c.startNode(name)
		}
		if err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// newStores makes a new node's stable storage: files under Dir for a
// deployment, memory devices otherwise.
func (c *Cluster) newStores(name string) (*core.Stores, error) {
	if c.opts.Dir != "" {
		return core.NewFileStores(filepath.Join(c.opts.Dir, name))
	}
	return core.NewMemStores(c.opts.Device), nil
}

// sessionLocked returns the cluster's long-lived coordination session,
// replacing it if it ended. Heartbeat rather than Closed: a lease refreshed
// here cannot expire before the read that follows.
//
//spinnaker:locked(layoutCacheMu)
func (c *Cluster) sessionLocked() *coord.Session {
	if c.layoutSess == nil || c.layoutSess.Heartbeat() != nil {
		c.layoutSess = c.Coord.Connect()
	}
	return c.layoutSess
}

// CurrentLayout returns the layout published in the coordination service
// (the authoritative one under live reconfiguration), falling back to the
// bootstrap layout. Decodes are memoized by znode version.
func (c *Cluster) CurrentLayout() *cluster.Layout {
	c.layoutCacheMu.Lock()
	defer c.layoutCacheMu.Unlock()
	data, ver, err := c.sessionLocked().GetVersion(core.LayoutPath)
	if err != nil {
		if c.layoutCache != nil {
			return c.layoutCache
		}
		return c.Layout
	}
	if c.layoutCache != nil && ver == c.layoutCacheVer {
		return c.layoutCache
	}
	l, err := cluster.Decode(data)
	if err != nil {
		return c.Layout
	}
	c.layoutCache, c.layoutCacheVer = l, ver
	return l
}

func (c *Cluster) startNode(name string) error {
	cfg := c.cfg
	cfg.ID = name
	// Bootstrap from the current published layout: a node restarting
	// after a reconfiguration must recover the ranges it serves *now*,
	// not the ones from the original layout.
	cfg.Layout = c.CurrentLayout()
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	n, err := core.NewNode(cfg, c.stores[name], c.Net.Join(name), c.Coord)
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	c.nodes[name] = n
	return nil
}

// WaitReady blocks until every range of the current layout has an open
// leader.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	deadline := simtime.Now().Add(timeout)
	for _, r := range c.CurrentLayout().RangeIDs() {
		if err := c.waitOpenLeader(r, deadline); err != nil {
			return err
		}
	}
	return nil
}

// LeaderOf returns the registered leader of a range, or "".
func (c *Cluster) LeaderOf(rangeID uint32) string {
	c.layoutCacheMu.Lock()
	defer c.layoutCacheMu.Unlock()
	data, err := c.sessionLocked().Get(fmt.Sprintf("/ranges/%d/leader", rangeID))
	if err != nil {
		return ""
	}
	return string(data)
}

// harnessCallTimeout bounds a client call that gets no answer: one into a
// partition, or to a leader stalled without a quorum. It is not what detects
// a crashed node — the transport reports a closed peer at once and the
// client follows the leader znode — so it no longer figures in measured
// unavailability (Table 1 likewise excludes the failure-detection timeout).
// Memory-backed clusters use it; a deployment waits a full second.
const harnessCallTimeout = 250 * time.Millisecond

// NewClient attaches a fresh client (its own endpoint and session); safe
// for concurrent use.
func (c *Cluster) NewClient() *core.Client {
	timeout := harnessCallTimeout
	if c.opts.Dir != "" {
		timeout = time.Second
	}
	c.cliMu.Lock()
	defer c.cliMu.Unlock()
	c.nextCli++
	ep := c.Net.Join(fmt.Sprintf("sp-client-%d", c.nextCli))
	ep.SetCallTimeout(timeout)
	cli := core.NewClient(c.CurrentLayout(), ep, c.Coord, int64(c.nextCli))
	c.clients = append(c.clients, cli)
	return cli
}

// CloseClient closes a client and forgets it. Stop closes whatever is still
// attached; a server that attaches one client per connection releases each
// here, or the cluster would retain them all for its lifetime.
func (c *Cluster) CloseClient(cli *core.Client) {
	cli.Close()
	c.cliMu.Lock()
	defer c.cliMu.Unlock()
	for i, x := range c.clients {
		if x == cli {
			c.clients = append(c.clients[:i], c.clients[i+1:]...)
			return
		}
	}
}

// Node returns a running node by id.
func (c *Cluster) Node(id string) (*core.Node, bool) {
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes lists running node ids.
func (c *Cluster) Nodes() []string {
	c.nodeMu.Lock()
	defer c.nodeMu.Unlock()
	out := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		out = append(out, name)
	}
	return out
}

// PartitionNodes cuts every link between the two groups (both
// directions); nodes within a group, and nodes in neither group, keep
// full connectivity.
func (c *Cluster) PartitionNodes(a, b []string) {
	for _, x := range a {
		for _, y := range b {
			if x != y {
				c.Net.Partition(x, y)
			}
		}
	}
}

// Isolate cuts a node from every other endpoint, clients included.
func (c *Cluster) Isolate(id string) { c.Net.Isolate(id) }

// HealAll removes every partition, symmetric and one-way.
func (c *Cluster) HealAll() { c.Net.HealAll() }

// CrashNode fails a node: process crash plus loss of the unforced log tail.
func (c *Cluster) CrashNode(id string) error {
	c.nodeMu.Lock()
	n, ok := c.nodes[id]
	if !ok {
		c.nodeMu.Unlock()
		return fmt.Errorf("host: node %s is not running", id)
	}
	delete(c.nodes, id)
	stores := c.stores[id]
	c.nodeMu.Unlock()
	n.Crash()
	stores.Crash()
	return nil
}

// FailDisk destroys a crashed node's stable storage (§6.1 disk failure).
func (c *Cluster) FailDisk(id string) {
	c.nodeMu.Lock()
	stores := c.stores[id]
	c.nodeMu.Unlock()
	stores.Fail()
}

// RestartNode restarts a crashed node over its surviving stores; it will
// run local recovery and catch up.
func (c *Cluster) RestartNode(id string) error {
	c.nodeMu.Lock()
	_, running := c.nodes[id]
	_, known := c.stores[id]
	c.nodeMu.Unlock()
	if !known {
		return fmt.Errorf("host: unknown node %s", id)
	}
	if running {
		return fmt.Errorf("host: node %s already running", id)
	}
	return c.startNode(id)
}

// Key formats a numeric row key at the cluster's key width.
func (c *Cluster) Key(i int) string {
	return fmt.Sprintf("%0*d", c.opts.KeyWidth, i)
}

// KeyDomain returns the size of the fixed-width decimal key space,
// 10^KeyWidth: Key(i) is a valid row key for 0 <= i < KeyDomain().
func (c *Cluster) KeyDomain() int {
	domain := 1
	for i := 0; i < c.opts.KeyWidth; i++ {
		domain *= 10
	}
	return domain
}

// Stop shuts everything down.
func (c *Cluster) Stop() {
	c.cliMu.Lock()
	clients := c.clients
	c.clients = nil
	c.cliMu.Unlock()
	for _, cli := range clients {
		cli.Close()
	}
	c.nodeMu.Lock()
	nodes := make([]*core.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.nodeMu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
	c.layoutCacheMu.Lock()
	if c.layoutSess != nil {
		c.layoutSess.Close()
	}
	c.layoutCacheMu.Unlock()
	c.Coord.Stop()
	c.Net.Close()
}
