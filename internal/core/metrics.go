package core

import (
	"time"

	"spinnaker/internal/metrics"
)

// rangeMetrics is a replica's hot-path instrumentation: throughput
// counters, latency histograms, a load-proportional key sample (the
// balancer's split-point input), and event counters. Everything written
// on the request path is a bounded number of atomic adds (see package
// metrics); snapshots are taken by the admin plane and the balancer.
type rangeMetrics struct {
	writes        metrics.Counter   // client writes committed (leader side)
	proposes      metrics.Counter   // propose messages sent (leader side)
	writeLat      metrics.Histogram // sequence-to-commit latency, ns
	strongReads   metrics.Counter   // consistent reads served
	timelineReads metrics.Counter   // timeline reads served
	readLat       metrics.Histogram // read service latency, ns
	elections     metrics.Counter   // takeovers this replica completed
	entryCatchups metrics.Counter   // entry-replay catch-ups absorbed
	keys          *metrics.KeySampler
}

// keySampleStride/keySampleCap size the per-range key reservoir: one of
// every 8 writes lands in a 512-slot ring, enough to place a split key
// within a few percent of the true load median while keeping the common
// path to a single atomic add.
const (
	keySampleStride = 8
	keySampleCap    = 512
)

func newRangeMetrics() rangeMetrics {
	return rangeMetrics{keys: metrics.NewKeySampler(keySampleStride, keySampleCap)}
}

// RangeMetrics is one replica's metrics snapshot: cumulative counters
// (consumers diff successive snapshots for rates) plus instantaneous
// state. Latency quantiles cover the whole run.
type RangeMetrics struct {
	Range   uint32 `json:"range"`
	Role    string `json:"role"`
	Leader  string `json:"leader"`
	Epoch   uint32 `json:"epoch"`
	Low     string `json:"low"`
	High    string `json:"high"`
	Pending int    `json:"pending"`

	Writes        int64         `json:"writes"`
	WriteP50      time.Duration `json:"write_p50_ns"`
	WriteP95      time.Duration `json:"write_p95_ns"`
	WriteP99      time.Duration `json:"write_p99_ns"`
	StrongReads   int64         `json:"strong_reads"`
	TimelineReads int64         `json:"timeline_reads"`
	ReadP95       time.Duration `json:"read_p95_ns"`

	// ProposeBatches counts the propose messages this replica sent as
	// leader, once per message however many peers it went to, re-sends
	// included: Writes ÷ ProposeBatches is the leader's batch size.
	ProposeBatches int64 `json:"propose_batches"`

	// Commit lag: how far apply trails sequencing, as an LSN-sequence gap
	// and as time since the committed watermark last advanced (zero when
	// nothing is pending).
	CommitLagSeqs uint64        `json:"commit_lag_seqs"`
	CommitLagTime time.Duration `json:"commit_lag_ns"`

	Elections        int64 `json:"elections"`
	EntryCatchups    int64 `json:"entry_catchups"`
	SnapshotCatchups int64 `json:"snapshot_catchups"`
	SnapshotsServed  int64 `json:"snapshots_served"`

	// Storage engine health: maintenance churn and read-path efficiency.
	Flushes    int64 `json:"flushes"`
	Compacts   int64 `json:"compacts"`
	Tables     int   `json:"tables"`
	TableBytes int64 `json:"table_bytes"` // summed blob size of the live tables
	ReadProbes int64 `json:"read_probes"`
	ReadPruned int64 `json:"read_pruned"`
	// Blob bytes flushes wrote, compaction wrote and compaction read over
	// the engine's life: write amplification is CompactedBytes ÷
	// FlushedBytes.
	FlushedBytes     int64 `json:"flushed_bytes"`
	CompactedBytes   int64 `json:"compacted_bytes"`
	CompactReadBytes int64 `json:"compact_read_bytes"`
}

// NodeMetrics is one node's full metrics snapshot.
type NodeMetrics struct {
	ID              string         `json:"id"`
	LayoutVersion   uint64         `json:"layout_version"`
	LayoutAdoptions int64          `json:"layout_adoptions"`
	WALAppends      int64          `json:"wal_appends"`
	WALForces       int64          `json:"wal_forces"`
	LogBytes        int64          `json:"log_bytes"` // live log segments, awaiting truncation
	Ranges          []RangeMetrics `json:"ranges"`
}

// Metrics snapshots the node's instrumentation for the admin plane and
// the balancer. Not for per-request use: it walks every replica and
// sums counter stripes.
func (n *Node) Metrics() NodeMetrics {
	nm := NodeMetrics{
		ID:              n.cfg.ID,
		LayoutVersion:   n.layoutVersion(),
		LayoutAdoptions: n.adoptions.Load(),
	}
	nm.WALAppends, nm.WALForces = n.log.Stats()
	nm.LogBytes = n.log.Bytes()
	for _, r := range n.replicaList() {
		nm.Ranges = append(nm.Ranges, r.metricsSnapshot())
	}
	return nm
}

func (r *replica) metricsSnapshot() RangeMetrics {
	r.mu.Lock()
	m := RangeMetrics{
		Range:            r.rangeID,
		Role:             r.role.String(),
		Leader:           r.leaderID,
		Epoch:            r.epoch,
		Low:              r.low,
		High:             r.high,
		Pending:          r.queue.len(),
		SnapshotCatchups: r.snapshotCatchups,
		SnapshotsServed:  r.snapshotsServed,
	}
	if r.lastLSN > r.lastCommitted {
		if g := r.lastLSN.Seq() - r.lastCommitted.Seq(); r.lastLSN.Seq() > r.lastCommitted.Seq() {
			m.CommitLagSeqs = g
		}
		if !r.commitAdvanced.IsZero() {
			m.CommitLagTime = time.Since(r.commitAdvanced)
		}
	}
	r.mu.Unlock()

	m.Writes = r.m.writes.Load()
	m.ProposeBatches = r.m.proposes.Load()
	m.StrongReads = r.m.strongReads.Load()
	m.TimelineReads = r.m.timelineReads.Load()
	m.Elections = r.m.elections.Load()
	m.EntryCatchups = r.m.entryCatchups.Load()
	w := r.m.writeLat.Snapshot()
	m.WriteP50 = time.Duration(w.Quantile(0.50))
	m.WriteP95 = time.Duration(w.Quantile(0.95))
	m.WriteP99 = time.Duration(w.Quantile(0.99))
	m.ReadP95 = time.Duration(r.m.readLat.Snapshot().Quantile(0.95))
	m.Flushes, m.Compacts, m.Tables = r.engine.Stats()
	m.TableBytes = r.engine.TableBytes()
	m.ReadProbes, m.ReadPruned = r.engine.ReadStats()
	m.FlushedBytes, m.CompactedBytes, m.CompactReadBytes = r.engine.ByteStats()
	return m
}

// SplitHint returns the load-weighted median key of rangeID's recent
// writes — the point that splits the range's observed load (not its key
// space) in half — or false if the replica has sampled too few writes
// to trust one (or the hint falls on a bound, where a split would be
// degenerate).
func (n *Node) SplitHint(rangeID uint32) (string, bool) {
	r := n.getReplica(rangeID)
	if r == nil {
		return "", false
	}
	key, ok := r.m.keys.MedianKey(keySampleCap / 8)
	if !ok {
		return "", false
	}
	r.mu.Lock()
	low, high := r.low, r.high
	r.mu.Unlock()
	if key <= low || (high != "" && key >= high) {
		return "", false
	}
	return key, true
}
