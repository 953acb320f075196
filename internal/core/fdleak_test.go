package core

import (
	"os"
	"testing"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/transport"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors here: %v", err)
	}
	return len(ents)
}

// TestFileStoresDoNotLeakDescriptors runs a cohort over file-backed stores
// through start/stop cycles, each writing enough to roll, capture and drop
// a few log segments per node, and requires the descriptors open once
// everything has stopped not to grow: Stop must close the log it opened, and
// a truncation the segment files it unlinks (wal's
// TestLogClosesDroppedSegments counts those one by one).
func TestFileStoresDoNotLeakDescriptors(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork(0)
	defer net.Close()
	svc := coord.NewService(0)
	defer svc.Stop()
	names := []string{"n0", "n1", "n2"}
	layout, err := cluster.Uniform(names, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 512)
	row := 0

	// cycle starts the nodes, writes until n0's log has dropped segments,
	// and stops everything again.
	cycle := func() {
		var n *Node
		for _, name := range names {
			stores, err := NewFileStores(dir + "/" + name)
			if err != nil {
				t.Fatal(err)
			}
			node, err := NewNode(Config{
				ID: name, Layout: layout,
				CommitPeriod: 5 * time.Millisecond, ElectionTimeout: 50 * time.Millisecond,
				FlushBytes: 8 << 10, SegmentBytes: 16 << 10, FlushInterval: 5 * time.Millisecond,
			}, stores, net.Join(name), svc)
			if err != nil {
				t.Fatal(err)
			}
			if err := node.Start(); err != nil {
				t.Fatal(err)
			}
			defer node.Stop()
			if n == nil {
				n = node
			}
		}
		c := NewClient(layout, net.Join("fd-client"), svc, 1)
		defer c.Close()
		// 150 puts fill four or five 16 KiB segments on each node.
		truncated := n.LogTruncated(0)
		deadline := time.Now().Add(10 * time.Second)
		for i := 0; i < 150 || n.LogTruncated(0) == truncated; i++ {
			if time.Now().After(deadline) {
				t.Fatal("log never truncated")
			}
			if _, err := c.Put(row0(row), "c", value); err != nil {
				t.Fatalf("put %d: %v", row, err)
			}
			row++
		}
	}

	cycle() // the runtime's own lazy descriptors (poller, ...) exist after this
	base := openFDs(t)
	for i := 0; i < 5; i++ {
		cycle()
		// Storage maintenance still finishing after Stop may hold a table
		// file for a moment; a leak stays.
		now := openFDs(t)
		for deadline := time.Now().Add(5 * time.Second); now > base && time.Now().Before(deadline); now = openFDs(t) {
			time.Sleep(10 * time.Millisecond)
		}
		if now > base {
			t.Fatalf("cycle %d: %d descriptors open with everything stopped, %d after the first cycle", i, now, base)
		}
	}
}
