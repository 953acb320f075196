package spinnaker

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPublicAPIBasics(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3})
	client := cluster.NewClient()

	v, err := client.Put("user42", "email", []byte("x@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	val, ver, err := client.Get("user42", "email", Strong)
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "x@example.com" || ver != v {
		t.Errorf("Get = %q v%d", val, ver)
	}
	if err := client.Delete("user42", "email"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Get("user42", "email", Strong); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after Delete: %v", err)
	}
	if _, err := client.Put(strings.Repeat("k", 1<<16), "email", nil); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("Put with a 64 KiB row key: %v, want ErrKeyTooLong", err)
	}
}

func TestPublicAPIConditional(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3})
	client := cluster.NewClient()

	v1, err := client.ConditionalPut("row", "c", []byte("a"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ConditionalPut("row", "c", []byte("b"), 0); !errors.Is(err, ErrVersionMismatch) {
		t.Errorf("stale conditional put: %v", err)
	}
	if _, err := client.ConditionalPut("row", "c", []byte("b"), v1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMultiColumn(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3})
	client := cluster.NewClient()

	if _, err := client.MultiPut("profile", []Column{
		{Col: "name", Value: []byte("Ada")},
		{Col: "lang", Value: []byte("Go")},
	}); err != nil {
		t.Fatal(err)
	}
	row, err := client.GetRow("profile", Strong)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 2 || row[0].Col != "lang" || row[1].Col != "name" {
		t.Errorf("GetRow = %+v", row)
	}
}

func TestPublicAPIIncrement(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3})

	var wg sync.WaitGroup
	const workers, each = 4, 10
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := cluster.NewClient()
			for i := 0; i < each; i++ {
				if _, err := client.Increment("stats", "hits", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := cluster.NewClient().Increment("stats", "hits", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
}

func TestPublicAPIFailover(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3, CommitPeriod: 5 * time.Millisecond})
	client := cluster.NewClient()

	if _, err := client.Put("durable", "c", []byte("v")); err != nil {
		t.Fatal(err)
	}
	leader := cluster.LeaderOf("durable")
	if leader == "" {
		t.Fatal("no leader registered")
	}
	if err := cluster.CrashNode(leader); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		val, _, err := client.Get("durable", "c", Strong)
		if err == nil {
			if string(val) != "v" {
				t.Fatalf("value = %q after failover", val)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unavailable after failover: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cluster.RestartNode(leader); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITimelineRead(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3, CommitPeriod: 5 * time.Millisecond})
	client := cluster.NewClient()
	if _, err := client.Put("tl", "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		val, _, err := client.Get("tl", "c", Timeline)
		if err == nil && string(val) == "x" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline read never converged: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewCluster(Options{LogDevice: "floppy"}); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestPublicAPIPartitionAndHeal(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3, CommitPeriod: 5 * time.Millisecond})
	client := cluster.NewClient()

	if _, err := client.Put("part", "c", []byte("before")); err != nil {
		t.Fatal(err)
	}
	// Cut the row's leader off from the rest of its cohort: without a
	// quorum the write must fail rather than diverge (§8.1).
	leader := cluster.LeaderOf("part")
	if leader == "" {
		t.Fatal("no leader registered")
	}
	var rest []string
	for _, id := range cluster.Nodes() {
		if id != leader {
			rest = append(rest, id)
		}
	}
	cluster.PartitionNodes([]string{leader}, rest)
	if _, err := client.Put("part", "c", []byte("split")); err == nil {
		t.Fatal("write committed across a partition without a quorum")
	}

	// Heal: the cohort must become available again and still serve the
	// last committed value.
	cluster.HealAll()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := client.Put("part", "c", []byte("after")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cohort never recovered after HealAll")
		}
		time.Sleep(10 * time.Millisecond)
	}
	val, _, err := client.Get("part", "c", Strong)
	if err != nil || string(val) != "after" {
		t.Fatalf("after heal: %q, %v", val, err)
	}

	// Isolate composes with HealAll the same way.
	cluster.Isolate(leader)
	cluster.HealAll()
	if _, err := client.Put("part", "c", []byte("final")); err != nil {
		t.Fatalf("write after Isolate+HealAll: %v", err)
	}
}

func TestPublicAPILinkFaults(t *testing.T) {
	// A lossy, duplicating, reordering network between nodes: the
	// replication protocol must ride through it and the API must stay
	// correct, if slower.
	cluster := newCluster(t, Options{
		Nodes:        3,
		CommitPeriod: 5 * time.Millisecond,
		FaultSeed:    7,
		LinkFaults: LinkFaults{
			DropProb:    0.02,
			DupProb:     0.02,
			ReorderProb: 0.05,
			Jitter:      time.Millisecond,
		},
	})
	client := cluster.NewClient()
	for i := 0; i < 40; i++ {
		row := cluster.Key(i * 1000)
		want := []byte{byte(i)}
		if _, err := client.Put(row, "c", want); err != nil {
			t.Fatalf("Put %d over lossy links: %v", i, err)
		}
		got, _, err := client.Get(row, "c", Strong)
		if err != nil || string(got) != string(want) {
			t.Fatalf("Get %d over lossy links: %q, %v", i, got, err)
		}
	}
}

func TestPublicAPIAsyncAndBatch(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3})
	client := cluster.NewClient()

	// Pipelined single-client writes through futures.
	const n = 32
	futures := make([]*WriteFuture, n)
	for i := 0; i < n; i++ {
		futures[i] = client.PutAsync(cluster.Key(i), "c", []byte{byte(i)})
	}
	for i, f := range futures {
		if v, err := f.Wait(); err != nil || v == 0 {
			t.Fatalf("async put %d: v=%d err=%v", i, v, err)
		}
	}
	// Wait is idempotent.
	if v, err := futures[0].Wait(); err != nil || v == 0 {
		t.Fatalf("re-Wait: v=%d err=%v", v, err)
	}
	for i := 0; i < n; i++ {
		got, _, err := client.Get(cluster.Key(i), "c", Strong)
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("Get(%d) = %v, %v", i, got, err)
		}
	}

	// Batch: multi-row pipelined submission, versions in batch order.
	b := client.NewBatch()
	for i := 0; i < 10; i++ {
		b.Put(cluster.Key(100+i), "c", []byte("b"))
	}
	b.Delete(cluster.Key(0), "c")
	if b.Len() != 11 {
		t.Fatalf("batch Len = %d", b.Len())
	}
	versions, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 11 {
		t.Fatalf("batch versions = %d", len(versions))
	}
	for i, v := range versions {
		if v == 0 {
			t.Errorf("batch op %d: zero version", i)
		}
	}
	if b.Len() != 0 {
		t.Errorf("batch not reset after Run")
	}
	if _, _, err := client.Get(cluster.Key(0), "c", Strong); !errors.Is(err, ErrNotFound) {
		t.Errorf("batched delete not applied: %v", err)
	}
	got, _, err := client.Get(cluster.Key(105), "c", Strong)
	if err != nil || string(got) != "b" {
		t.Errorf("batched put: %q, %v", got, err)
	}

	// DeleteAsync.
	if _, err := client.Put("zz", "c", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.DeleteAsync("zz", "c").Wait(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.Get("zz", "c", Strong); !errors.Is(err, ErrNotFound) {
		t.Errorf("async delete: %v", err)
	}
}

func TestPublicAPIScaleOut(t *testing.T) {
	cluster := newCluster(t, Options{Nodes: 3})
	client := cluster.NewClient()

	// Preload keys across the whole key domain so every range has data.
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := client.Put(cluster.Key(i*100000000/n), "v", []byte{byte(i)}); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}
	v0 := cluster.LayoutVersion()

	// Grow live: two new nodes, then rebalance onto them while the
	// cluster keeps serving.
	for i := 0; i < 2; i++ {
		id, err := cluster.AddNode()
		if err != nil {
			t.Fatal(err)
		}
		if id == "" {
			t.Fatal("AddNode returned an empty id")
		}
	}
	if err := cluster.Rebalance(); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if got := len(cluster.Nodes()); got != 5 {
		t.Fatalf("nodes after scale-out: %d, want 5", got)
	}
	if cluster.NumRanges() < 5 {
		t.Fatalf("ranges after scale-out: %d, want >= 5", cluster.NumRanges())
	}
	if cluster.LayoutVersion() <= v0 {
		t.Fatalf("layout version did not advance: %d -> %d", v0, cluster.LayoutVersion())
	}

	// All data survives the reconfiguration, for old and new clients.
	fresh := cluster.NewClient()
	for i := 0; i < n; i++ {
		key := cluster.Key(i * 100000000 / n)
		for _, cl := range []*Client{client, fresh} {
			val, _, err := cl.Get(key, "v", Strong)
			if err != nil || len(val) != 1 || val[0] != byte(i) {
				t.Fatalf("read %s after scale-out: %v %v", key, val, err)
			}
		}
	}
	if _, err := client.Put(cluster.Key(1), "v", []byte("post")); err != nil {
		t.Fatalf("write after scale-out: %v", err)
	}
}
