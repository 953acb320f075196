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
	"strconv"
	"strings"
	"time"

	"spinnaker/internal/admin"
	"spinnaker/internal/core"
	"spinnaker/internal/host"
)

// server fronts one host.Cluster — the assembly the embedded API and the
// test harness also run — with the line protocol.
type server struct {
	c *host.Cluster
}

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		log.Fatalf("spinnaker-server: %v", err)
	}
}

// run starts the cluster described by args and serves it until the client
// listener is closed, then stops the cluster. ready, when non-nil, is called
// with the listener once it is accepting (tests read its address and close
// it).
func run(args []string, ready func(net.Listener)) error {
	fs := flag.NewFlagSet("spinnaker-server", flag.ExitOnError)
	var (
		dir        = fs.String("dir", "", "data directory (required; created if missing)")
		nodes      = fs.Int("nodes", 3, "number of nodes")
		listen     = fs.String("listen", "127.0.0.1:7070", "client listen address")
		httpAddr   = fs.String("http", "", "admin HTTP listen address serving /metrics and /status (empty = disabled)")
		commit     = fs.Duration("commit-period", 100*time.Millisecond, "commit message period")
		flushBytes = fs.Int64("flush-bytes", 0, "memtable size in bytes that triggers a flush (0 = default 4MiB)")
		maxTbls    = fs.Int("max-tables", 0, "table count that triggers a compaction round (0 = default 8)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return one
	if *dir == "" {
		return errors.New("-dir is required")
	}

	c, err := host.New(host.Options{
		Dir:            *dir,
		SessionTimeout: 2 * time.Second, // the paper's ZK timeout
		Nodes:          *nodes,
		CommitPeriod:   *commit,
		FlushBytes:     *flushBytes,
		MaxTables:      *maxTbls,
	})
	if err != nil {
		return fmt.Errorf("start cluster: %w", err)
	}
	defer c.Stop()
	// Wait for initial elections so the first client call succeeds.
	if err := c.WaitReady(30 * time.Second); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	defer ln.Close()
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("http listen: %w", err)
		}
		defer hln.Close()
		log.Printf("spinnaker-server: admin plane (/metrics, /status) on http://%s", hln.Addr())
		go func() {
			if err := http.Serve(hln, admin.NewHandler(c.AdminSource())); !errors.Is(err, net.ErrClosed) {
				log.Fatalf("http serve: %v", err)
			}
		}()
	}
	log.Printf("spinnaker-server: %d nodes, data in %s, serving on %s", *nodes, *dir, ln.Addr())
	s := &server{c: c}
	if ready != nil {
		ready(ln)
	}
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
		go s.serveConn(conn)
	}
}

func (s *server) serveConn(conn net.Conn) {
	defer conn.Close()
	client := s.c.NewClient()
	defer s.c.CloseClient(client)
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
		leader := s.c.LeaderOf(s.c.CurrentLayout().RangeOf(args[1]))
		if leader == "" {
			fmt.Fprintln(out, "ERR no leader")
			return
		}
		fmt.Fprintf(out, "OK %s\n", leader)
	case "NODES":
		names := s.c.Nodes()
		fmt.Fprintf(out, "OK %d\n", len(names))
		for _, name := range names {
			fmt.Fprintln(out, name)
		}
	case "CRASH", "RESTART":
		if !need(2) {
			return
		}
		op := s.c.CrashNode
		if cmd == "RESTART" {
			op = s.c.RestartNode
		}
		if err := op(args[1]); err != nil {
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
