// Package spinnaker is a from-scratch Go implementation of Spinnaker, the
// scalable, consistent, and highly available datastore of Rao, Shekita, and
// Tata (VLDB 2011). It features key-based range partitioning, 3-way
// replication, and a transactional get-put API with the option to choose
// either strong or timeline consistency on reads. Replication uses a
// Multi-Paxos–derived protocol integrated with each node's shared
// write-ahead log and recovery, with leader election and epochs managed
// through a Zookeeper-like coordination service.
//
// The cluster is elastic: AddNode and Rebalance grow a running deployment
// live — ranges split, joining replicas catch up via data shipping before
// old members retire, and leadership spreads onto the new nodes — while
// clients follow the published layout automatically and reads and writes
// stay linearizable throughout (the nemesis suite checks exactly this).
//
// The package runs a full multi-node cluster in process, over a simulated
// network and simulated logging devices (see EXPERIMENTS.md for what has
// been measured on it). A Cluster is a thin wrapper over internal/host, the one
// cluster assembly: cmd/spinnaker-server runs the same object over real
// disks behind a TCP line protocol, and the test harness (internal/sim)
// drives it under faults — the package links no test scaffolding.
//
// Quickstart:
//
//	cluster, err := spinnaker.NewCluster(spinnaker.Options{Nodes: 3})
//	if err != nil { ... }
//	defer cluster.Close()
//
//	client := cluster.NewClient()
//	version, err := client.Put("user42", "email", []byte("x@example.com"))
//	value, version, err := client.Get("user42", "email", spinnaker.Strong)
package spinnaker

import (
	"errors"
	"fmt"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/host"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Consistency selects the read consistency level (§3 of the paper).
type Consistency bool

const (
	// Strong routes the read to the cohort leader; the latest committed
	// value is always returned.
	Strong Consistency = true
	// Timeline may route the read to any replica; a possibly stale value
	// is returned in exchange for better performance. Staleness is
	// bounded by the commit period.
	Timeline Consistency = false
)

// Errors returned by the client API.
var (
	// ErrNotFound reports a missing row or column.
	ErrNotFound = core.ErrNotFound
	// ErrVersionMismatch is returned by conditional put/delete when the
	// column's current version differs from the one supplied.
	ErrVersionMismatch = core.ErrVersionMismatch
	// ErrUnavailable reports that the key's cohort has no majority alive
	// (or is mid-takeover). The operation took no effect.
	ErrUnavailable = core.ErrUnavailable
	// ErrAmbiguous reports a write whose outcome is unknown: it reached
	// the leader and was sequenced, but its commit was never confirmed
	// (partition or failover mid-write). It may or may not take effect;
	// readers that must know should re-read and compare versions.
	ErrAmbiguous = core.ErrAmbiguous
	// ErrKeyTooLong rejects a row key or column name longer than 65 535
	// bytes, the most the wire and storage formats can carry. Nothing was
	// sent.
	ErrKeyTooLong = core.ErrKeyTooLong
)

// LogDevice names a simulated logging-device latency profile.
type LogDevice string

// Logging device profiles (paper §9.2, App. D.4, D.6.2). Latencies are
// scaled models of the paper's hardware (see wal.DeviceHDD and friends for
// the exact figures).
const (
	// DeviceInstant has no simulated latency (unit tests, functional use).
	DeviceInstant LogDevice = "instant"
	// DeviceHDD models the dedicated SATA logging disk of Appendix C.
	DeviceHDD LogDevice = "hdd"
	// DeviceSSD models the FusionIO flash device of Appendix D.4.
	DeviceSSD LogDevice = "ssd"
	// DeviceMem models the main-memory log of Appendix D.6.2.
	DeviceMem LogDevice = "mem"
)

func (d LogDevice) profile() (wal.DeviceProfile, error) {
	switch d {
	case "", DeviceInstant:
		return wal.DeviceInstant, nil
	case DeviceHDD:
		return wal.DeviceHDD, nil
	case DeviceSSD:
		return wal.DeviceSSD, nil
	case DeviceMem:
		return wal.DeviceMem, nil
	default:
		return wal.DeviceProfile{}, fmt.Errorf("spinnaker: unknown log device %q", d)
	}
}

// Options configure an embedded cluster.
type Options struct {
	// Nodes is the cluster size (default 3; the paper's local testbed
	// uses 10, its EC2 runs 20-80).
	Nodes int
	// Replication is N, the cohort size (default 3, as in the paper).
	Replication int
	// CommitPeriod is the interval between the leader's asynchronous
	// commit messages; it bounds timeline-read staleness and follower
	// recovery work (paper §5, Table 1). Default 25ms.
	CommitPeriod time.Duration
	// NetworkDelay is the simulated one-way message latency (default 0).
	NetworkDelay time.Duration
	// LogDevice selects the logging-device latency profile (default
	// DeviceInstant).
	LogDevice LogDevice
	// PiggybackCommits carries commit information on propose messages
	// (App. D.1), shrinking staleness without extra messages.
	PiggybackCommits bool
	// ReadyTimeout bounds the wait for initial leader elections
	// (default 30s).
	ReadyTimeout time.Duration
	// FaultSeed seeds the simulated network's per-link fault RNGs; with
	// the same seed and LinkFaults, the fault decision stream replays.
	FaultSeed int64
	// LinkFaults configures a fault plane on every node↔node link of
	// the simulated network: message drops, duplication, reordering, and
	// jittered delay beneath the replication protocol. The zero value is
	// clean TCP-like delivery. Client↔node links are never degraded
	// (client RPCs are not idempotent; in a real deployment TCP hides
	// sub-connection faults from them).
	LinkFaults LinkFaults
}

// LinkFaults configures the per-link fault plane; see the fields of
// transport.LinkFaults. All probabilities are per message.
type LinkFaults struct {
	// DropProb is the probability a message is silently dropped.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// ReorderProb is the probability a message is overtaken by its
	// successor on the link.
	ReorderProb float64
	// Jitter adds a uniformly random extra delay in [0, Jitter) per
	// message.
	Jitter time.Duration
}

// Cluster is an embedded multi-node Spinnaker deployment.
type Cluster struct {
	sc *host.Cluster
}

// NewCluster starts a cluster and waits until every key range has elected
// a leader and is open for writes.
func NewCluster(opts Options) (*Cluster, error) {
	profile, err := LogDevice(opts.LogDevice).profile()
	if err != nil {
		return nil, err
	}
	sc, err := host.New(host.Options{
		Nodes:            opts.Nodes,
		Replication:      opts.Replication,
		NetworkDelay:     opts.NetworkDelay,
		Device:           profile,
		CommitPeriod:     opts.CommitPeriod,
		PiggybackCommits: opts.PiggybackCommits,
		FaultSeed:        opts.FaultSeed,
		LinkFaults: transport.LinkFaults{
			DropProb:    opts.LinkFaults.DropProb,
			DupProb:     opts.LinkFaults.DupProb,
			ReorderProb: opts.LinkFaults.ReorderProb,
			Jitter:      opts.LinkFaults.Jitter,
		},
	})
	if err != nil {
		return nil, err
	}
	timeout := opts.ReadyTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if err := sc.WaitReady(timeout); err != nil {
		sc.Stop()
		return nil, err
	}
	return &Cluster{sc: sc}, nil
}

// NewClient attaches a new client to the cluster. A client is safe for
// concurrent use (asynchronous writes run on internal goroutines), but all
// of its traffic shares one endpoint; create one per worker for throughput.
func (c *Cluster) NewClient() *Client {
	return &Client{c: c.sc.NewClient()}
}

// Nodes lists the ids of the running nodes.
func (c *Cluster) Nodes() []string { return c.sc.Nodes() }

// AddNode starts a new, empty node and adds it to the cluster ring (§4's
// placement, made elastic). The node serves no key ranges until Rebalance
// moves some onto it. The generated node id is returned.
func (c *Cluster) AddNode() (string, error) { return c.sc.AddNode("") }

// Rebalance spreads the key space over the current ring: wide ranges are
// split until there is at least one per node (new replicas seed themselves
// from the split origin's leader), cohort membership is morphed one member
// at a time onto the ring placement (joining members catch up via data
// shipping before old members retire), and leadership transfers toward each
// range's home node. Safe to run while traffic executes: affected ranges
// see brief unavailability windows (elections, re-routes), never
// inconsistency, and clients follow the published layout automatically.
func (c *Cluster) Rebalance() error { return c.sc.Rebalance(5 * time.Minute) }

// NumRanges reports the number of key ranges under the current layout.
func (c *Cluster) NumRanges() int { return c.sc.CurrentLayout().NumRanges() }

// LayoutVersion reports the current published cluster layout version; it
// advances with every reconfiguration step.
func (c *Cluster) LayoutVersion() uint64 { return c.sc.CurrentLayout().Version() }

// Key formats a numeric row key at the cluster's key width; workloads that
// sweep numeric keys use it to hit every partition.
func (c *Cluster) Key(i int) string { return c.sc.Key(i) }

// LeaderOf returns the node currently leading the cohort for row's key
// range, as registered in the coordination service. The row is resolved
// under the current published layout, so the answer tracks splits and
// moves.
func (c *Cluster) LeaderOf(row string) string {
	return c.sc.LeaderOf(c.sc.CurrentLayout().RangeOf(row))
}

// CrashNode simulates a node crash: the process dies and the unforced tail
// of its log is lost. The cohort remains available as long as a majority
// of its replicas are alive (§8.1).
func (c *Cluster) CrashNode(id string) error { return c.sc.CrashNode(id) }

// FailDisk destroys a crashed node's stable storage; on restart it
// recovers entirely through the catch-up phase (§6.1).
func (c *Cluster) FailDisk(id string) { c.sc.FailDisk(id) }

// RestartNode restarts a crashed node over its surviving storage; it runs
// local recovery and catches up before rejoining its cohorts.
func (c *Cluster) RestartNode(id string) error { return c.sc.RestartNode(id) }

// PartitionNodes cuts every network link between the two groups, in both
// directions; nodes within a group keep full connectivity. Cohorts whose
// majority sits on one side remain available there; the minority side
// refuses writes rather than diverge (§8.1).
func (c *Cluster) PartitionNodes(a, b []string) { c.sc.PartitionNodes(a, b) }

// Isolate cuts a node off from every other endpoint, clients included —
// the dead-switch-port failure. Heal with HealAll.
func (c *Cluster) Isolate(id string) { c.sc.Isolate(id) }

// HealAll removes every network partition.
func (c *Cluster) HealAll() { c.sc.HealAll() }

// Close shuts the cluster down.
func (c *Cluster) Close() { c.sc.Stop() }

// Column is one column of a row in multi-column operations.
type Column struct {
	Col   string
	Value []byte
}

// ColumnValue is a read column with its version.
type ColumnValue struct {
	Col     string
	Value   []byte
	Version uint64
}

// Client is a routing datastore client implementing the API of §3. Each
// call executes as a single-operation transaction.
type Client struct {
	c *core.Client
}

// Get reads a column value and its version number from a row. Strong
// consistency always returns the latest value; Timeline may return a
// possibly stale value in exchange for better performance.
func (cl *Client) Get(row, col string, consistency Consistency) ([]byte, uint64, error) {
	return cl.c.Get(row, col, bool(consistency))
}

// GetRow reads every live column of a row.
func (cl *Client) GetRow(row string, consistency Consistency) ([]ColumnValue, error) {
	entries, err := cl.c.GetRow(row, bool(consistency))
	if err != nil {
		return nil, err
	}
	out := make([]ColumnValue, 0, len(entries))
	for _, e := range entries {
		out = append(out, ColumnValue{Col: e.Key.Col, Value: e.Cell.Value, Version: e.Cell.Version})
	}
	return out, nil
}

// Put inserts a column value into a row and returns its version number.
func (cl *Client) Put(row, col string, value []byte) (uint64, error) {
	return cl.c.Put(row, col, value)
}

// WriteFuture is the handle to an in-flight asynchronous write started with
// PutAsync or DeleteAsync.
type WriteFuture struct {
	f *core.WriteFuture
}

// Wait blocks until the write commits (or fails) and returns the version
// assigned to it. It may be called multiple times and from any goroutine.
func (w *WriteFuture) Wait() (uint64, error) {
	vs, err := w.f.Wait()
	if err != nil || len(vs) == 0 {
		return 0, err
	}
	return vs[0], nil
}

// PutAsync starts a put without waiting for it to commit. Issuing several
// writes before calling Wait pipelines them: the leader coalesces
// concurrently submitted writes into shared propose batches and log forces,
// so a single client can saturate the replication pipeline. Submission
// applies backpressure — with many writes already in flight, PutAsync
// blocks until a slot frees rather than queueing without bound.
func (cl *Client) PutAsync(row, col string, value []byte) *WriteFuture {
	return &WriteFuture{f: cl.c.PutAsync(row, col, value)}
}

// DeleteAsync starts a delete without waiting for it to commit; it applies
// the same backpressure as PutAsync.
func (cl *Client) DeleteAsync(row, col string) *WriteFuture {
	return &WriteFuture{f: cl.c.DeleteAsync(row, col)}
}

// Batch collects writes to independent rows for pipelined submission. Each
// write remains its own single-operation transaction (there are no
// cross-row transactions, §3); batching overlaps their replication instead
// of running them lockstep.
type Batch struct {
	b *core.Batch
}

// NewBatch returns an empty write batch bound to this client.
func (cl *Client) NewBatch() *Batch { return &Batch{b: cl.c.NewBatch()} }

// Put adds a put to the batch.
func (b *Batch) Put(row, col string, value []byte) { b.b.Put(row, col, value) }

// Delete adds a delete to the batch.
func (b *Batch) Delete(row, col string) { b.b.Delete(row, col) }

// Len reports the number of writes queued in the batch.
func (b *Batch) Len() int { return b.b.Len() }

// Run submits every write concurrently, waits for them all, and returns the
// version assigned to each write in batch order plus the first error
// encountered. The batch is reset for reuse.
func (b *Batch) Run() ([]uint64, error) { return b.b.Run() }

// Delete removes a column from a row.
func (cl *Client) Delete(row, col string) error {
	return cl.c.Delete(row, col)
}

// ConditionalPut inserts a new column value only if the column's current
// version number equals version; otherwise ErrVersionMismatch is returned.
// Use version 0 to insert only if the column does not exist. Together with
// Get, this provides optimistic concurrency control for read-modify-write
// transactions on a row (§3).
func (cl *Client) ConditionalPut(row, col string, value []byte, version uint64) (uint64, error) {
	return cl.c.ConditionalPut(row, col, value, version)
}

// ConditionalDelete removes the column only if its current version equals
// version.
func (cl *Client) ConditionalDelete(row, col string, version uint64) error {
	return cl.c.ConditionalDelete(row, col, version)
}

// MultiPut atomically writes several columns of the same row in one
// single-operation transaction.
func (cl *Client) MultiPut(row string, cols []Column) ([]uint64, error) {
	cc := make([]core.Column, len(cols))
	for i, col := range cols {
		cc[i] = core.Column{Col: col.Col, Value: col.Value}
	}
	return cl.c.MultiPut(row, cc)
}

// ConditionalMultiPut atomically writes several columns of the same row,
// each guarded by its expected current version; if any check fails the
// whole transaction fails.
func (cl *Client) ConditionalMultiPut(row string, cols []Column, versions []uint64) ([]uint64, error) {
	cc := make([]core.Column, len(cols))
	for i, col := range cols {
		cc[i] = core.Column{Col: col.Col, Value: col.Value}
	}
	return cl.c.ConditionalMultiPut(row, cc, versions)
}

// Increment transactionally adds delta to a counter column using the
// get + conditionalPut retry loop from §3 of the paper, returning the new
// value.
func (cl *Client) Increment(row, col string, delta int64) (int64, error) {
	for {
		var cur int64
		val, ver, err := cl.Get(row, col, Strong)
		switch {
		case err == nil:
			if len(val) != 8 {
				return 0, fmt.Errorf("spinnaker: column %s:%s is not a counter", row, col)
			}
			cur = int64(beUint64(val))
		case errors.Is(err, ErrNotFound):
			cur = 0
		default:
			return 0, err
		}
		next := cur + delta
		if _, err := cl.ConditionalPut(row, col, bePut(uint64(next)), ver); err == nil {
			return next, nil
		} else if !errors.Is(err, ErrVersionMismatch) {
			return 0, err
		}
		// Lost the race; retry with a fresh read.
	}
}

func beUint64(b []byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

func bePut(v uint64) []byte {
	b := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return b
}
