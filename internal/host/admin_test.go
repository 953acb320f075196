package host

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"spinnaker/internal/admin"
)

// TestAdminEndpoints drives a live cluster through writes and reads and
// asserts the /status and /metrics endpoints expose the resulting
// per-range throughput, commit lag, and storage stats over real HTTP.
func TestAdminEndpoints(t *testing.T) {
	sc, err := New(Options{Nodes: 3, Replication: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cli := sc.NewClient()
	for i := 0; i < 200; i++ {
		if _, err := cli.Put(sc.Key(i), "v", []byte("x")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, _, err := cli.Get(sc.Key(i), "v", true); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}

	srv := httptest.NewServer(admin.NewHandler(sc.AdminSource()))
	defer srv.Close()

	// /status: layout-wide JSON view with live per-range numbers.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status returned %d", resp.StatusCode)
	}
	var st admin.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, body)
	}
	if st.LayoutVersion == 0 || st.Replication != 3 {
		t.Fatalf("bad layout header: %+v", st)
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("want 3 nodes, got %d", len(st.Nodes))
	}
	var writes int64
	leaders := 0
	for _, r := range st.Ranges {
		writes += r.Writes
		if r.Leader != "" {
			leaders++
		}
	}
	if writes < 200 {
		t.Fatalf("status shows %d writes, want >= 200", writes)
	}
	if leaders != len(st.Ranges) {
		t.Fatalf("only %d/%d ranges show a leader", leaders, len(st.Ranges))
	}
	for _, n := range st.Nodes {
		if n.WALAppends == 0 {
			t.Fatalf("node %s shows zero WAL appends", n.ID)
		}
	}

	// /metrics: the text exposition must carry the same series.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics returned %d", resp.StatusCode)
	}
	for _, want := range []string{
		"spinnaker_layout_version",
		"spinnaker_range_writes_total",
		"spinnaker_range_propose_batches_total",
		"spinnaker_range_write_latency_seconds",
		"spinnaker_range_commit_lag_seqs",
		"spinnaker_range_storage_flushes_total",
		"spinnaker_node_wal_forces_total",
		"spinnaker_log_bytes",
		"spinnaker_table_bytes",
		"spinnaker_range_storage_flushed_bytes_total",
		"spinnaker_range_storage_compacted_bytes_total",
		`role="leader"`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Strong reads were served and counted on some leader line.
	if !strings.Contains(string(text), "spinnaker_range_strong_reads_total") {
		t.Fatalf("/metrics missing strong read counter")
	}
	// One client writing one row at a time: every write left in a propose
	// batch of its own (re-sends only add batches).
	var batches, leaderWrites int64
	for _, line := range strings.Split(string(text), "\n") {
		name, rest, _ := strings.Cut(line, "{")
		var sum *int64
		switch name {
		case "spinnaker_range_propose_batches_total":
			sum = &batches
		case "spinnaker_range_writes_total":
			sum = &leaderWrites
		}
		if sum == nil || !strings.Contains(rest, `role="leader"`) {
			continue
		}
		n, err := strconv.ParseInt(rest[strings.LastIndexByte(rest, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		*sum += n
	}
	if leaderWrites == 0 || batches < leaderWrites {
		t.Fatalf("leaders sent %d propose batches for %d writes, want at least one per write", batches, leaderWrites)
	}
}
