// Package sim is the test harness around a cluster: the nemesis
// (nemesis.go) composes seeded fault schedules — partitions, isolation,
// link faults, crash/restart, disk failure, live rebalancing — against
// concurrent workloads whose histories are checked for per-key
// linearizability; workload.go, zipf.go and catchup.go hold the load
// generators, latency measurement and the truncated-rejoin scenario the
// benchmark harness uses to regenerate the paper's evaluation (§9,
// Appendices C and D); DynamoCluster deploys the eventually consistent
// baseline; leakcheck.go is the goroutine-leak sentinel.
//
// The cluster itself is not assembled here: SpinnakerCluster is
// host.Cluster, the same object the embedded API and spinnaker-server run,
// over the simulated network and logging devices that reproduce the paper's
// 10-node testbed on one box at ~10× reduced latency scale.
package sim

import (
	"fmt"
	"sync"

	"spinnaker/internal/cluster"
	"spinnaker/internal/core"
	"spinnaker/internal/dynamo"
	"spinnaker/internal/host"
	"spinnaker/internal/transport"
)

// The Spinnaker side of the harness is package host's cluster under the
// names the harness has always used.
type (
	Options          = host.Options
	SpinnakerCluster = host.Cluster
	BalancerOptions  = host.BalancerOptions
	BalancerAction   = host.BalancerAction
	Balancer         = host.Balancer
)

// NewSpinnakerCluster builds and starts a cluster.
func NewSpinnakerCluster(opts Options) (*SpinnakerCluster, error) { return host.New(opts) }

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
	opts.FillDefaults()
	names := host.NodeNames(opts.Nodes)
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
	ep.SetCallTimeout(host.HarnessCallTimeout)
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
