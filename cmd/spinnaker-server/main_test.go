package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer runs the server over dir on a free port and returns its
// address and a stop function that shuts it down and waits for run to return.
func startServer(t *testing.T, dir string) (addr string, stop func()) {
	t.Helper()
	ready := make(chan net.Listener, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-dir", dir, "-listen", "127.0.0.1:0", "-commit-period", "5ms"},
			func(ln net.Listener) { ready <- ln })
	}()
	select {
	case ln := <-ready:
		return ln.Addr().String(), func() {
			ln.Close()
			if err := <-done; err != nil {
				t.Errorf("run: %v", err)
			}
		}
	case err := <-done:
		t.Fatalf("server did not start: %v", err)
		return "", nil
	}
}

// conn is one line-protocol connection.
type conn struct {
	c  net.Conn
	in *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, in: bufio.NewReader(c)}, nil
}

// do sends one request and returns its first response line.
func (c *conn) do(format string, args ...any) (string, error) {
	if _, err := fmt.Fprintf(c.c, format+"\n", args...); err != nil {
		return "", err
	}
	return c.line()
}

func (c *conn) line() (string, error) {
	l, err := c.in.ReadString('\n')
	return strings.TrimSpace(l), err
}

// lines reads the n follow-up lines of a multi-line response.
func (c *conn) lines(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		var err error
		if out[i], err = c.line(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// eventually issues req on a fresh connection until the response starts with
// "OK": while a cohort re-elects or a restarted node catches up, a request
// may be refused, and a refused request is retried, never waited out on a
// wall-clock guess.
func eventually(t *testing.T, addr, req string) string {
	t.Helper()
	var last string
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		c, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		last, err = c.do("%s", req)
		c.c.Close()
		if err == nil && strings.HasPrefix(last, "OK") {
			return last
		}
	}
	t.Fatalf("%s: never succeeded, last response %q", req, last)
	return ""
}

const (
	workers = 16
	incrs   = 5 // per worker, on the shared counter
)

func workerRow(w int) string { return fmt.Sprintf("%08d", w*(100000000/workers)+1) }

// worker drives every data command over one connection, on the worker's own
// row plus a counter all workers share.
func worker(addr string, w int, start <-chan struct{}) error {
	<-start // all workers dial together: the server attaches 16 clients at once
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.c.Close()
	row := workerRow(w)
	expect := func(wantPrefix, format string, args ...any) (string, error) {
		got, err := c.do(format, args...)
		if err != nil {
			return "", err
		}
		if !strings.HasPrefix(got, wantPrefix) {
			return "", fmt.Errorf("worker %d: %s -> %q, want %q...", w, fmt.Sprintf(format, args...), got, wantPrefix)
		}
		return got, nil
	}
	put, err := expect("OK ", "PUT %s name w%d", row, w)
	if err != nil {
		return err
	}
	ver := strings.TrimPrefix(put, "OK ")
	if _, err := expect(fmt.Sprintf("OK %s w%d", ver, w), "GET %s name", row); err != nil {
		return err
	}
	if _, err := expect("MISMATCH", "CPUT %s name stale 1", row); err != nil {
		return err
	}
	if _, err := expect("OK ", "CPUT %s name w%d-v2 %s", row, w, ver); err != nil {
		return err
	}
	if _, err := expect("OK ", "PUT %s city c%d", row, w); err != nil {
		return err
	}
	if _, err := expect("OK 2", "ROW %s", row); err != nil {
		return err
	}
	cols, err := c.lines(2)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(cols[0], "city ") || !strings.HasSuffix(cols[0], fmt.Sprintf(" c%d", w)) ||
		!strings.HasPrefix(cols[1], "name ") || !strings.HasSuffix(cols[1], fmt.Sprintf(" w%d-v2", w)) {
		return fmt.Errorf("worker %d: ROW returned %q", w, cols)
	}
	for i := 1; i <= incrs; i++ {
		if _, err := expect(fmt.Sprintf("OK %d", i), "INCR %s hits 1", row); err != nil {
			return err
		}
		if _, err := expect("OK ", "INCR shared hits 1"); err != nil {
			return err
		}
	}
	if _, err := expect("OK node", "LEADER %s", row); err != nil {
		return err
	}
	if _, err := expect("OK 3", "NODES"); err != nil {
		return err
	}
	_, err = c.lines(3)
	return err
}

// checkRows strong-reads what the workers (and the fault phase) left behind.
func checkRows(t *testing.T, addr, phase string, generation int) {
	t.Helper()
	for w := 0; w < workers; w++ {
		row := workerRow(w)
		if got := eventually(t, addr, "GET "+row+" name"); !strings.HasSuffix(got, fmt.Sprintf(" w%d-v2", w)) {
			t.Errorf("%s: GET %s name -> %q", phase, row, got)
		}
		if got := eventually(t, addr, "GET "+row+" hits"); !strings.HasSuffix(got, fmt.Sprintf(" %d", incrs)) {
			t.Errorf("%s: GET %s hits -> %q", phase, row, got)
		}
		if got := eventually(t, addr, "GET "+row+" gen"); !strings.HasSuffix(got, fmt.Sprintf(" g%d", generation)) {
			t.Errorf("%s: GET %s gen -> %q", phase, row, got)
		}
	}
	if got := eventually(t, addr, "GET shared hits"); !strings.HasSuffix(got, fmt.Sprintf(" %d", workers*incrs)) {
		t.Errorf("%s: shared counter -> %q, want %d", phase, got, workers*incrs)
	}
}

// putGeneration writes column gen = g<n> on every worker row.
func putGeneration(t *testing.T, addr string, generation int) {
	t.Helper()
	for w := 0; w < workers; w++ {
		eventually(t, addr, fmt.Sprintf("PUT %s gen g%d", workerRow(w), generation))
	}
}

// TestServerEndToEnd drives the line protocol against a file-backed cluster:
// 16 connections opened at once (each attaches a client through
// host.Cluster.NewClient — run under -race this pins that no two share an
// endpoint id), a follower crashed and restarted and then made
// indispensable, and a full stop and restart over the same directory (§6
// local recovery) after which every row must read back.
func TestServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	addr, stop := startServer(t, dir)

	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- worker(addr, w, start)
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	putGeneration(t, addr, 1)
	checkRows(t, addr, "after load", 1)

	// Crash a follower of row 0's range; the majority keeps serving.
	leader := strings.TrimPrefix(eventually(t, addr, "LEADER "+workerRow(0)), "OK ")
	var followers []string
	for _, n := range []string{"node000", "node001", "node002"} {
		if n != leader {
			followers = append(followers, n)
		}
	}
	a, b := followers[0], followers[1]
	eventually(t, addr, "CRASH "+a)
	putGeneration(t, addr, 2)
	// Restart it and crash the other follower: from here every quorum
	// includes the restarted node, so each acknowledged write and strong
	// read below went through it — it recovered its log and caught up.
	eventually(t, addr, "RESTART "+a)
	eventually(t, addr, "CRASH "+b)
	putGeneration(t, addr, 3)
	checkRows(t, addr, "through the restarted follower", 3)
	eventually(t, addr, "RESTART "+b)
	if got := eventually(t, addr, "NODES"); got != "OK 3" {
		t.Fatalf("NODES after restarts -> %q", got)
	}

	// Stop everything, start again on the same directory: all state comes
	// back from the nodes' logs and SSTables.
	stop()
	addr, stop = startServer(t, dir)
	defer stop()
	checkRows(t, addr, "after restart on the same directory", 3)
}
