// spinnaker-server runs a durable Spinnaker cluster on one box: real nodes
// with file-backed logs, metadata, and SSTables under -dir, fronted by a
// line-oriented TCP API that spinnaker-cli (or netcat) speaks. Data
// survives restarts of the process — on startup every node runs local
// recovery from its log, exactly as in the paper's §6.
//
// Usage:
//
//	spinnaker-server -dir /var/lib/spinnaker -nodes 3 -listen 127.0.0.1:7070
//
// Protocol (one request per line, one response per line):
//
//	PUT <row> <col> <value>           -> OK <version>
//	GET <row> <col> [strong|timeline] -> OK <version> <value> | NOTFOUND
//	DEL <row> <col>                   -> OK
//	CPUT <row> <col> <value> <ver>    -> OK <version> | MISMATCH
//	CDEL <row> <col> <ver>            -> OK | MISMATCH
//	ROW <row> [strong|timeline]       -> OK <n>, then n lines "<col> <version> <value>"
//	INCR <row> <col> <delta>          -> OK <newvalue>
//	LEADER <row>                      -> OK <node>
//	NODES                             -> OK <n>, then n lines "<node>"
//	CRASH <node> / RESTART <node>     -> OK   (fault injection)
//	QUIT                              -> closes the connection
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"spinnaker/internal/admin"
	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/core"
	"spinnaker/internal/transport"
)

// server owns the embedded cluster and serves the line protocol.
type server struct {
	layout   *cluster.Layout
	net      *transport.Network
	coordSvc *coord.Service
	stores   map[string]*core.Stores
	mu       sync.Mutex // guards nodes (CRASH/RESTART mutate it per connection)
	nodes    map[string]*core.Node
	cfg      core.Config
	nextCli  int
}

func main() {
	var (
		dir        = flag.String("dir", "", "data directory (required; created if missing)")
		nodes      = flag.Int("nodes", 3, "number of nodes")
		listen     = flag.String("listen", "127.0.0.1:7070", "client listen address")
		httpAddr   = flag.String("http", "", "admin HTTP listen address serving /metrics and /status (empty = disabled)")
		commit     = flag.Duration("commit-period", 100*time.Millisecond, "commit message period")
		flushBytes = flag.Int64("flush-bytes", 0, "memtable size in bytes that triggers a flush (0 = default 4MiB)")
		maxTbls    = flag.Int("max-tables", 0, "table count that triggers a compaction round (0 = default 8)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "spinnaker-server: -dir is required")
		os.Exit(2)
	}

	s, err := newServer(*dir, *nodes, *commit, *flushBytes, *maxTbls)
	if err != nil {
		log.Fatalf("start cluster: %v", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("http listen: %v", err)
		}
		log.Printf("spinnaker-server: admin plane (/metrics, /status) on http://%s", hln.Addr())
		go func() {
			log.Fatalf("http serve: %v", http.Serve(hln, admin.NewHandler(s.adminSource())))
		}()
	}
	log.Printf("spinnaker-server: %d nodes, data in %s, serving on %s", *nodes, *dir, ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("accept: %v", err)
		}
		go s.serveConn(conn)
	}
}

func newServer(dir string, nodeCount int, commitPeriod time.Duration, flushBytes int64, maxTables int) (*server, error) {
	names := make([]string, nodeCount)
	for i := range names {
		names[i] = fmt.Sprintf("node%03d", i)
	}
	repl := 3
	if nodeCount < 3 {
		repl = nodeCount
	}
	layout, err := cluster.Uniform(names, 8, repl)
	if err != nil {
		return nil, err
	}
	s := &server{
		layout:   layout,
		net:      transport.NewNetwork(0),
		coordSvc: coord.NewService(2 * time.Second), // the paper's ZK timeout
		stores:   make(map[string]*core.Stores),
		nodes:    make(map[string]*core.Node),
		cfg: core.Config{
			Layout:       layout,
			CommitPeriod: commitPeriod,
			FlushBytes:   flushBytes,
			MaxTables:    maxTables,
		},
	}
	// Publish the layout: nodes follow the published version (the same
	// mechanism the embedded cluster uses for live reconfiguration).
	pubSess := s.coordSvc.Connect()
	err = core.PublishLayout(pubSess, layout)
	pubSess.Close()
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		stores, err := core.NewFileStores(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		s.stores[name] = stores
		if err := s.startNode(name); err != nil {
			return nil, err
		}
	}
	// Wait for initial elections so the first client call succeeds.
	deadline := time.Now().Add(30 * time.Second)
	sess := s.coordSvc.Connect()
	defer sess.Close()
	for _, r := range layout.RangeIDs() {
		for {
			if _, err := sess.Get(fmt.Sprintf("/ranges/%d/leader", r)); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("range %d never elected a leader", r)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return s, nil
}

func (s *server) startNode(name string) error {
	cfg := s.cfg
	cfg.ID = name
	n, err := core.NewNode(cfg, s.stores[name], s.net.Join(name), s.coordSvc)
	if err != nil {
		return err
	}
	if err := n.Start(); err != nil {
		return err
	}
	s.mu.Lock()
	s.nodes[name] = n
	s.mu.Unlock()
	return nil
}

// adminSource adapts the embedded cluster to the admin HTTP plane: the
// same Source contract the simulation harness feeds, so /metrics and
// /status read identically against either host.
func (s *server) adminSource() admin.Source {
	return admin.Source{
		Nodes: func() []string {
			s.mu.Lock()
			defer s.mu.Unlock()
			names := make([]string, 0, len(s.nodes))
			for name := range s.nodes {
				names = append(names, name)
			}
			return names
		},
		NodeMetrics: func(id string) (core.NodeMetrics, bool) {
			s.mu.Lock()
			n, ok := s.nodes[id]
			s.mu.Unlock()
			if !ok {
				return core.NodeMetrics{}, false
			}
			return n.Metrics(), true
		},
		Layout: func() *cluster.Layout { return s.layout },
		LeaderOf: func(r uint32) string {
			sess := s.coordSvc.Connect()
			defer sess.Close()
			data, err := sess.Get(fmt.Sprintf("/ranges/%d/leader", r))
			if err != nil {
				return ""
			}
			return string(data)
		},
	}
}

func (s *server) newClient() *core.Client {
	s.nextCli++
	ep := s.net.Join(fmt.Sprintf("tcp-client-%d", s.nextCli))
	ep.SetCallTimeout(time.Second)
	return core.NewClient(s.layout, ep, s.coordSvc, int64(s.nextCli))
}

func (s *server) serveConn(conn net.Conn) {
	defer conn.Close()
	client := s.newClient()
	defer client.Close()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 0, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)
	defer out.Flush()
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "QUIT") {
			return
		}
		s.execute(client, line, out)
		out.Flush()
	}
}

func consistencyArg(args []string, i int) bool {
	return i >= len(args) || !strings.EqualFold(args[i], "timeline")
}

func (s *server) execute(c *core.Client, line string, out *bufio.Writer) {
	args := strings.Fields(line)
	cmd := strings.ToUpper(args[0])
	fail := func(err error) {
		switch {
		case errors.Is(err, core.ErrNotFound):
			fmt.Fprintln(out, "NOTFOUND")
		case errors.Is(err, core.ErrVersionMismatch):
			fmt.Fprintln(out, "MISMATCH")
		default:
			fmt.Fprintf(out, "ERR %v\n", err)
		}
	}
	need := func(n int) bool {
		if len(args) < n {
			fmt.Fprintf(out, "ERR %s needs %d arguments\n", cmd, n-1)
			return false
		}
		return true
	}
	switch cmd {
	case "PUT":
		if !need(4) {
			return
		}
		v, err := c.Put(args[1], args[2], []byte(args[3]))
		if err != nil {
			fail(err)
			return
		}
		fmt.Fprintf(out, "OK %d\n", v)
	case "GET":
		if !need(3) {
			return
		}
		val, ver, err := c.Get(args[1], args[2], consistencyArg(args, 3))
		if err != nil {
			fail(err)
			return
		}
		fmt.Fprintf(out, "OK %d %s\n", ver, val)
	case "DEL":
		if !need(3) {
			return
		}
		if err := c.Delete(args[1], args[2]); err != nil {
			fail(err)
			return
		}
		fmt.Fprintln(out, "OK")
	case "CPUT":
		if !need(5) {
			return
		}
		ver, err := strconv.ParseUint(args[4], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "ERR bad version %q\n", args[4])
			return
		}
		v, err := c.ConditionalPut(args[1], args[2], []byte(args[3]), ver)
		if err != nil {
			fail(err)
			return
		}
		fmt.Fprintf(out, "OK %d\n", v)
	case "CDEL":
		if !need(4) {
			return
		}
		ver, err := strconv.ParseUint(args[3], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "ERR bad version %q\n", args[3])
			return
		}
		if err := c.ConditionalDelete(args[1], args[2], ver); err != nil {
			fail(err)
			return
		}
		fmt.Fprintln(out, "OK")
	case "ROW":
		if !need(2) {
			return
		}
		entries, err := c.GetRow(args[1], consistencyArg(args, 2))
		if err != nil {
			fail(err)
			return
		}
		fmt.Fprintf(out, "OK %d\n", len(entries))
		for _, e := range entries {
			fmt.Fprintf(out, "%s %d %s\n", e.Key.Col, e.Cell.Version, e.Cell.Value)
		}
	case "INCR":
		if !need(4) {
			return
		}
		delta, err := strconv.ParseInt(args[3], 10, 64)
		if err != nil {
			fmt.Fprintf(out, "ERR bad delta %q\n", args[3])
			return
		}
		n, err := s.increment(c, args[1], args[2], delta)
		if err != nil {
			fail(err)
			return
		}
		fmt.Fprintf(out, "OK %d\n", n)
	case "LEADER":
		if !need(2) {
			return
		}
		sess := s.coordSvc.Connect()
		data, err := sess.Get(fmt.Sprintf("/ranges/%d/leader", s.layout.RangeOf(args[1])))
		sess.Close()
		if err != nil {
			fmt.Fprintln(out, "ERR no leader")
			return
		}
		fmt.Fprintf(out, "OK %s\n", data)
	case "NODES":
		s.mu.Lock()
		names := make([]string, 0, len(s.nodes))
		for name := range s.nodes {
			names = append(names, name)
		}
		s.mu.Unlock()
		fmt.Fprintf(out, "OK %d\n", len(names))
		for _, name := range names {
			fmt.Fprintln(out, name)
		}
	case "CRASH":
		if !need(2) {
			return
		}
		s.mu.Lock()
		n, ok := s.nodes[args[1]]
		delete(s.nodes, args[1])
		s.mu.Unlock()
		if !ok {
			fmt.Fprintf(out, "ERR node %s not running\n", args[1])
			return
		}
		n.Crash()
		fmt.Fprintln(out, "OK")
	case "RESTART":
		if !need(2) {
			return
		}
		s.mu.Lock()
		_, running := s.nodes[args[1]]
		s.mu.Unlock()
		if running {
			fmt.Fprintf(out, "ERR node %s already running\n", args[1])
			return
		}
		if _, ok := s.stores[args[1]]; !ok {
			fmt.Fprintf(out, "ERR unknown node %s\n", args[1])
			return
		}
		if err := s.startNode(args[1]); err != nil {
			fmt.Fprintf(out, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(out, "OK")
	default:
		fmt.Fprintf(out, "ERR unknown command %s\n", cmd)
	}
}

// increment is the §3 read-modify-write loop over a decimal counter column.
func (s *server) increment(c *core.Client, row, col string, delta int64) (int64, error) {
	for {
		var cur int64
		val, ver, err := c.Get(row, col, true)
		switch {
		case err == nil:
			cur, err = strconv.ParseInt(string(val), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("column is not a counter: %q", val)
			}
		case errors.Is(err, core.ErrNotFound):
			cur = 0
		default:
			return 0, err
		}
		next := cur + delta
		_, err = c.ConditionalPut(row, col, []byte(strconv.FormatInt(next, 10)), ver)
		if err == nil {
			return next, nil
		}
		if !errors.Is(err, core.ErrVersionMismatch) {
			return 0, err
		}
	}
}
