// Package admin serves the cluster's observability plane over HTTP:
// /metrics (a flat text exposition of every counter and quantile) and
// /status (a JSON cluster view: layout version, ranges, leaders, commit
// lag). It is deliberately decoupled from how the cluster is hosted —
// the in-process simulation harness and the spinnaker-server binary both
// feed it through a Source of closures.
package admin

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/core"
)

// Source provides the handler's view of the cluster.
type Source struct {
	// Nodes lists the node IDs currently running.
	Nodes func() []string
	// NodeMetrics snapshots one node's instrumentation.
	NodeMetrics func(id string) (core.NodeMetrics, bool)
	// Layout returns the newest published layout (may be nil early on).
	Layout func() *cluster.Layout
	// LeaderOf names the current leader of a range ("" if none).
	LeaderOf func(rangeID uint32) string
}

// NewHandler returns an http.Handler serving /metrics and /status.
func NewHandler(s Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeMetrics(w, s)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(buildStatus(s))
	})
	return mux
}

// Status is the /status document.
type Status struct {
	LayoutVersion uint64        `json:"layout_version"`
	Replication   int           `json:"replication"`
	Nodes         []NodeStatus  `json:"nodes"`
	Ranges        []RangeStatus `json:"ranges"`
}

// NodeStatus is one node's row in /status.
type NodeStatus struct {
	ID              string `json:"id"`
	LayoutVersion   uint64 `json:"layout_version"`
	LayoutAdoptions int64  `json:"layout_adoptions"`
	WALAppends      int64  `json:"wal_appends"`
	WALForces       int64  `json:"wal_forces"`
	Ranges          int    `json:"ranges"`
}

// RangeStatus is one range's row in /status: layout facts plus the
// leader replica's live metrics (zero-valued if no leader is reachable).
type RangeStatus struct {
	ID     uint32   `json:"id"`
	Low    string   `json:"low"`
	High   string   `json:"high"`
	Cohort []string `json:"cohort"`
	Home   string   `json:"home"`
	Leader string   `json:"leader"`

	Writes        int64   `json:"writes"`
	StrongReads   int64   `json:"strong_reads"`
	TimelineReads int64   `json:"timeline_reads"`
	WriteP99Ms    float64 `json:"write_p99_ms"`
	CommitLagSeqs uint64  `json:"commit_lag_seqs"`
	CommitLagMs   float64 `json:"commit_lag_ms"`
	Pending       int     `json:"pending"`
	Tables        int     `json:"tables"`
	Flushes       int64   `json:"flushes"`
	Compacts      int64   `json:"compacts"`
}

func buildStatus(s Source) Status {
	st := Status{}
	l := s.Layout()
	if l != nil {
		st.LayoutVersion = l.Version()
		st.Replication = l.Replication()
	}
	perRange := map[uint32]core.RangeMetrics{}
	nodes := s.Nodes()
	sort.Strings(nodes)
	for _, id := range nodes {
		nm, ok := s.NodeMetrics(id)
		if !ok {
			continue
		}
		st.Nodes = append(st.Nodes, NodeStatus{
			ID:              nm.ID,
			LayoutVersion:   nm.LayoutVersion,
			LayoutAdoptions: nm.LayoutAdoptions,
			WALAppends:      nm.WALAppends,
			WALForces:       nm.WALForces,
			Ranges:          len(nm.Ranges),
		})
		for _, rm := range nm.Ranges {
			// Prefer the leader replica's numbers; otherwise keep any
			// replica's as a fallback view of the range.
			if prev, ok := perRange[rm.Range]; !ok || (rm.Role == "leader" && prev.Role != "leader") {
				perRange[rm.Range] = rm
			}
		}
	}
	if l == nil {
		return st
	}
	for _, id := range l.RangeIDs() {
		low, high := l.Bounds(id)
		rs := RangeStatus{
			ID:     id,
			Low:    low,
			High:   high,
			Cohort: l.Cohort(id),
			Home:   l.HomeNode(id),
			Leader: s.LeaderOf(id),
		}
		if rm, ok := perRange[id]; ok {
			rs.Writes = rm.Writes
			rs.StrongReads = rm.StrongReads
			rs.TimelineReads = rm.TimelineReads
			rs.WriteP99Ms = float64(rm.WriteP99) / float64(time.Millisecond)
			rs.CommitLagSeqs = rm.CommitLagSeqs
			rs.CommitLagMs = float64(rm.CommitLagTime) / float64(time.Millisecond)
			rs.Pending = rm.Pending
			rs.Tables = rm.Tables
			rs.Flushes = rm.Flushes
			rs.Compacts = rm.Compacts
		}
		st.Ranges = append(st.Ranges, rs)
	}
	return st
}

// writeMetrics emits the flat text exposition: one `name{labels} value`
// line per series, suitable for scraping or grepping.
func writeMetrics(w http.ResponseWriter, s Source) {
	if l := s.Layout(); l != nil {
		fmt.Fprintf(w, "spinnaker_layout_version %d\n", l.Version())
		fmt.Fprintf(w, "spinnaker_layout_ranges %d\n", l.NumRanges())
	}
	nodes := s.Nodes()
	sort.Strings(nodes)
	for _, id := range nodes {
		nm, ok := s.NodeMetrics(id)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "spinnaker_node_layout_version{node=%q} %d\n", nm.ID, nm.LayoutVersion)
		fmt.Fprintf(w, "spinnaker_node_layout_adoptions_total{node=%q} %d\n", nm.ID, nm.LayoutAdoptions)
		fmt.Fprintf(w, "spinnaker_node_wal_appends_total{node=%q} %d\n", nm.ID, nm.WALAppends)
		fmt.Fprintf(w, "spinnaker_node_wal_forces_total{node=%q} %d\n", nm.ID, nm.WALForces)
		fmt.Fprintf(w, "spinnaker_log_bytes{node=%q} %d\n", nm.ID, nm.LogBytes)
		for _, rm := range nm.Ranges {
			lbl := fmt.Sprintf("{node=%q,range=\"%d\",role=%q}", nm.ID, rm.Range, rm.Role)
			qlbl := func(q string) string {
				return fmt.Sprintf("{node=%q,range=\"%d\",role=%q,q=%q}", nm.ID, rm.Range, rm.Role, q)
			}
			fmt.Fprintf(w, "spinnaker_range_writes_total%s %d\n", lbl, rm.Writes)
			fmt.Fprintf(w, "spinnaker_range_propose_batches_total%s %d\n", lbl, rm.ProposeBatches)
			fmt.Fprintf(w, "spinnaker_range_strong_reads_total%s %d\n", lbl, rm.StrongReads)
			fmt.Fprintf(w, "spinnaker_range_timeline_reads_total%s %d\n", lbl, rm.TimelineReads)
			fmt.Fprintf(w, "spinnaker_range_write_latency_seconds%s %g\n", qlbl("0.5"), rm.WriteP50.Seconds())
			fmt.Fprintf(w, "spinnaker_range_write_latency_seconds%s %g\n", qlbl("0.95"), rm.WriteP95.Seconds())
			fmt.Fprintf(w, "spinnaker_range_write_latency_seconds%s %g\n", qlbl("0.99"), rm.WriteP99.Seconds())
			fmt.Fprintf(w, "spinnaker_range_read_latency_seconds%s %g\n", qlbl("0.95"), rm.ReadP95.Seconds())
			fmt.Fprintf(w, "spinnaker_range_commit_lag_seqs%s %d\n", lbl, rm.CommitLagSeqs)
			fmt.Fprintf(w, "spinnaker_range_commit_lag_seconds%s %g\n", lbl, rm.CommitLagTime.Seconds())
			fmt.Fprintf(w, "spinnaker_range_pending_writes%s %d\n", lbl, rm.Pending)
			fmt.Fprintf(w, "spinnaker_range_elections_total%s %d\n", lbl, rm.Elections)
			fmt.Fprintf(w, "spinnaker_range_entry_catchups_total%s %d\n", lbl, rm.EntryCatchups)
			fmt.Fprintf(w, "spinnaker_range_snapshot_catchups_total%s %d\n", lbl, rm.SnapshotCatchups)
			fmt.Fprintf(w, "spinnaker_range_snapshots_served_total%s %d\n", lbl, rm.SnapshotsServed)
			fmt.Fprintf(w, "spinnaker_range_storage_flushes_total%s %d\n", lbl, rm.Flushes)
			fmt.Fprintf(w, "spinnaker_range_storage_compactions_total%s %d\n", lbl, rm.Compacts)
			fmt.Fprintf(w, "spinnaker_range_storage_tables%s %d\n", lbl, rm.Tables)
			fmt.Fprintf(w, "spinnaker_table_bytes%s %d\n", lbl, rm.TableBytes)
			fmt.Fprintf(w, "spinnaker_range_storage_read_probes_total%s %d\n", lbl, rm.ReadProbes)
			fmt.Fprintf(w, "spinnaker_range_storage_read_pruned_total%s %d\n", lbl, rm.ReadPruned)
			fmt.Fprintf(w, "spinnaker_range_storage_flushed_bytes_total%s %d\n", lbl, rm.FlushedBytes)
			fmt.Fprintf(w, "spinnaker_range_storage_compacted_bytes_total%s %d\n", lbl, rm.CompactedBytes)
			fmt.Fprintf(w, "spinnaker_range_storage_compaction_read_bytes_total%s %d\n", lbl, rm.CompactReadBytes)
		}
	}
}
