package core

import (
	"fmt"
	"os"
	"testing"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// testCluster is an in-process Spinnaker cluster for protocol tests: real
// nodes, real log/storage stores, simulated network and instant devices.
type testCluster struct {
	t       *testing.T
	net     *transport.Network
	coord   *coord.Service
	layout  *cluster.Layout
	stores  map[string]*Stores
	nodes   map[string]*Node
	cfgTmpl Config
	hooks   testHooks
}

// testHooks lets a test decorate what each node is built over; zero members
// keep the defaults (in-memory stores on the instant device, the bare
// in-process endpoint, coord sessions that never time out).
type testHooks struct {
	stores         func(name string) *Stores
	endpoint       func(name string, ep transport.Endpoint) transport.Endpoint
	sessionTimeout time.Duration
}

// init (not newTestCluster) sets the global paranoia flag: per-test writes
// would race with replica goroutines still draining from the previous test.
func init() {
	ParanoidAckChecks = os.Getenv("SPINNAKER_PARANOIA") != ""
}

func newTestCluster(t *testing.T, nodeCount int, tweak func(*Config)) *testCluster {
	t.Helper()
	return newHookedTestCluster(t, nodeCount, tweak, testHooks{})
}

func newHookedTestCluster(t *testing.T, nodeCount int, tweak func(*Config), hooks testHooks) *testCluster {
	t.Helper()
	if hooks.stores == nil {
		hooks.stores = func(string) *Stores { return NewMemStores(wal.DeviceInstant) }
	}
	if hooks.endpoint == nil {
		hooks.endpoint = func(_ string, ep transport.Endpoint) transport.Endpoint { return ep }
	}
	names := make([]string, nodeCount)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	layout, err := cluster.Uniform(names, 6, min(3, nodeCount))
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		t:      t,
		net:    transport.NewNetwork(0),
		coord:  coord.NewService(hooks.sessionTimeout),
		layout: layout,
		stores: make(map[string]*Stores),
		nodes:  make(map[string]*Node),
		hooks:  hooks,
	}
	tc.cfgTmpl = Config{
		Layout:          layout,
		CommitPeriod:    5 * time.Millisecond,
		WriteTimeout:    2 * time.Second,
		ElectionTimeout: 50 * time.Millisecond,
		TakeoverTimeout: 2 * time.Second,
		RetryInterval:   5 * time.Millisecond,
		FlushInterval:   20 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&tc.cfgTmpl)
	}
	for _, name := range names {
		tc.stores[name] = hooks.stores(name)
		tc.startNode(name)
	}
	t.Cleanup(tc.shutdown)
	return tc
}

func (tc *testCluster) startNode(name string) *Node {
	tc.t.Helper()
	cfg := tc.cfgTmpl
	cfg.ID = name
	n, err := NewNode(cfg, tc.stores[name], tc.hooks.endpoint(name, tc.net.Join(name)), tc.coord)
	if err != nil {
		tc.t.Fatalf("NewNode(%s): %v", name, err)
	}
	if err := n.Start(); err != nil {
		tc.t.Fatalf("Start(%s): %v", name, err)
	}
	tc.nodes[name] = n
	return n
}

// crashNode simulates a process crash plus loss of the log's unforced tail.
func (tc *testCluster) crashNode(name string) {
	tc.t.Helper()
	tc.nodes[name].Crash()
	tc.stores[name].Crash()
	delete(tc.nodes, name)
}

// restartNode brings a crashed node back over its surviving stores.
func (tc *testCluster) restartNode(name string) *Node {
	tc.t.Helper()
	return tc.startNode(name)
}

func (tc *testCluster) shutdown() {
	for _, n := range tc.nodes {
		n.Stop()
	}
	tc.coord.Stop()
}

func (tc *testCluster) client() *Client {
	c := NewClient(tc.layout, tc.net.Join(fmt.Sprintf("client-%d", time.Now().UnixNano())), tc.coord, 1)
	tc.t.Cleanup(c.Close)
	return c
}

// waitAllLeaders blocks until every range has an open leader.
func (tc *testCluster) waitAllLeaders() {
	tc.t.Helper()
	sess := tc.coord.Connect()
	defer sess.Close()
	deadline := time.Now().Add(10 * time.Second)
	for r := 0; r < tc.layout.NumRanges(); r++ {
		for {
			if time.Now().After(deadline) {
				tc.t.Fatalf("range %d never elected an open leader", r)
			}
			data, err := sess.Get(leaderPath(uint32(r)))
			if err == nil {
				if n, ok := tc.nodes[string(data)]; ok {
					if st, ok := n.ReplicaStats(uint32(r)); ok && st.Role == RoleLeader && st.Open {
						break
					}
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// leaderOf returns the current leader node of a range.
func (tc *testCluster) leaderOf(r uint32) *Node {
	tc.t.Helper()
	sess := tc.coord.Connect()
	defer sess.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		data, err := sess.Get(leaderPath(r))
		if err == nil {
			if n, ok := tc.nodes[string(data)]; ok {
				return n
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	tc.t.Fatalf("range %d has no live leader", r)
	return nil
}

func TestClusterPutGet(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	v, err := c.Put("000100", "name", []byte("alice"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v == 0 {
		t.Error("Put returned zero version")
	}
	got, ver, err := c.Get("000100", "name", true)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "alice" || ver != v {
		t.Errorf("Get = %q v%d, want alice v%d", got, ver, v)
	}
}

func TestClusterWritesSpreadAcrossRanges(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	for i := 0; i < 30; i++ {
		row := fmt.Sprintf("%06d", i*33000)
		if _, err := c.Put(row, "c", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put(%s): %v", row, err)
		}
	}
	for i := 0; i < 30; i++ {
		row := fmt.Sprintf("%06d", i*33000)
		got, _, err := c.Get(row, "c", true)
		if err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Errorf("Get(%s) = %q,%v", row, got, err)
		}
	}
}

func TestClusterVersionsIncreaseMonotonically(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	var last uint64
	for i := 0; i < 10; i++ {
		v, err := c.Put("000500", "counter", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if v <= last {
			t.Fatalf("version %d not above %d", v, last)
		}
		last = v
	}
}

func TestClusterDelete(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	if _, err := c.Put("000300", "col", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("000300", "col"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("000300", "col", true); err != ErrNotFound {
		t.Errorf("Get after delete: %v, want ErrNotFound", err)
	}
}

func TestClusterConditionalPut(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	// Create-if-absent via version 0.
	v1, err := c.ConditionalPut("000700", "c", []byte("first"), 0)
	if err != nil {
		t.Fatalf("conditional create: %v", err)
	}
	// Stale version must fail.
	if _, err := c.ConditionalPut("000700", "c", []byte("clobber"), 0); err != ErrVersionMismatch {
		t.Errorf("stale conditional put: %v, want ErrVersionMismatch", err)
	}
	// Fresh version succeeds.
	v2, err := c.ConditionalPut("000700", "c", []byte("second"), v1)
	if err != nil {
		t.Fatalf("fresh conditional put: %v", err)
	}
	if v2 <= v1 {
		t.Errorf("versions not increasing: %d then %d", v1, v2)
	}
	got, _, _ := c.Get("000700", "c", true)
	if string(got) != "second" {
		t.Errorf("value = %q", got)
	}
}

func TestClusterTransactionalIncrement(t *testing.T) {
	// The paper's §3 example: transactionally increment a counter with
	// get + conditionalPut, retrying on conflict.
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()

	increment := func(c *Client) {
		for {
			val, ver, err := c.Get("000900", "c", true)
			var cur int
			if err == ErrNotFound {
				cur = 0
			} else if err != nil {
				t.Error(err)
				return
			} else {
				cur = int(val[0])
			}
			if _, err := c.ConditionalPut("000900", "c", []byte{byte(cur + 1)}, ver); err == nil {
				return
			} else if err != ErrVersionMismatch {
				t.Error(err)
				return
			}
		}
	}
	done := make(chan struct{})
	const workers, perWorker = 4, 5
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			c := tc.client()
			for i := 0; i < perWorker; i++ {
				increment(c)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	c := tc.client()
	val, _, err := c.Get("000900", "c", true)
	if err != nil {
		t.Fatal(err)
	}
	if int(val[0]) != workers*perWorker {
		t.Errorf("counter = %d, want %d", val[0], workers*perWorker)
	}
}

func TestClusterConditionalDelete(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	v, err := c.Put("001100", "c", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ConditionalDelete("001100", "c", v+999); err != ErrVersionMismatch {
		t.Errorf("stale conditional delete: %v", err)
	}
	if err := c.ConditionalDelete("001100", "c", v); err != nil {
		t.Errorf("fresh conditional delete: %v", err)
	}
	if _, _, err := c.Get("001100", "c", true); err != ErrNotFound {
		t.Errorf("Get after conditional delete: %v", err)
	}
}

func TestClusterMultiColumnPut(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	vs, err := c.MultiPut("001300", []Column{
		{Col: "a", Value: []byte("1")},
		{Col: "b", Value: []byte("2")},
		{Col: "c", Value: []byte("3")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != vs[1] || vs[1] != vs[2] {
		t.Errorf("multi-put versions = %v (one transaction, one version)", vs)
	}
	row, err := c.GetRow("001300", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 3 {
		t.Fatalf("GetRow = %d cols", len(row))
	}
	for i, want := range []string{"1", "2", "3"} {
		if string(row[i].Cell.Value) != want {
			t.Errorf("col %d = %q", i, row[i].Cell.Value)
		}
	}
}

func TestClusterConditionalMultiPut(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	vs, err := c.MultiPut("001500", []Column{{Col: "x", Value: []byte("1")}, {Col: "y", Value: []byte("2")}})
	if err != nil {
		t.Fatal(err)
	}
	// One stale version fails the whole transaction.
	if _, err := c.ConditionalMultiPut("001500",
		[]Column{{Col: "x", Value: []byte("1a")}, {Col: "y", Value: []byte("2a")}},
		[]uint64{vs[0], vs[1] + 5},
	); err != ErrVersionMismatch {
		t.Fatalf("partial-stale multi-put: %v", err)
	}
	// Neither column changed.
	got, _, _ := c.Get("001500", "x", true)
	if string(got) != "1" {
		t.Errorf("x = %q after failed transaction", got)
	}
	// Correct versions commit atomically.
	if _, err := c.ConditionalMultiPut("001500",
		[]Column{{Col: "x", Value: []byte("1a")}, {Col: "y", Value: []byte("2a")}},
		vs,
	); err != nil {
		t.Fatal(err)
	}
	got, _, _ = c.Get("001500", "y", true)
	if string(got) != "2a" {
		t.Errorf("y = %q", got)
	}
}

func TestClusterTimelineReadConverges(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()

	if _, err := c.Put("001700", "c", []byte("value")); err != nil {
		t.Fatal(err)
	}
	// Timeline reads may lag by up to a commit period; within a few
	// periods every replica must serve the write (§5).
	deadline := time.Now().Add(10 * time.Second)
	seen := 0
	for time.Now().Before(deadline) && seen < 20 {
		got, _, err := c.Get("001700", "c", false)
		if err == nil && string(got) == "value" {
			seen++
		} else {
			seen = 0
			time.Sleep(2 * time.Millisecond)
		}
	}
	if seen < 20 {
		t.Error("timeline reads never converged to the committed value")
	}
}

func TestClusterStrongReadRejectedAtFollower(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()

	leader := tc.leaderOf(0)
	var follower *Node
	for name, n := range tc.nodes {
		if name != leader.ID() && tc.layout.CohortContains(0, name) {
			follower = n
			break
		}
	}
	if follower == nil {
		t.Fatal("no follower found")
	}
	ep := tc.net.Join("probe")
	resp, err := ep.Call(transport.Message{
		To: follower.ID(), Kind: MsgGet, Cohort: 0,
		Payload: encodeGetReq(getReq{Row: "000001", Col: "c", Consistent: true}),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decodeGetResp(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNotLeader {
		t.Errorf("strong read at follower: status %d, want NotLeader", res.Status)
	}
}

func TestClusterGetRowNotFound(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	tc.waitAllLeaders()
	c := tc.client()
	if _, err := c.GetRow("999999", true); err != ErrNotFound {
		t.Errorf("GetRow missing row: %v", err)
	}
}
