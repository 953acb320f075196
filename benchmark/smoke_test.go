package main

import (
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload on a plan shrunk to a few short windows, and
// the two that between them cover every decorator (TCP endpoints and file
// segments; crashes over wrapped memory segments) traced as well. It asserts
// what must hold on any machine: every metric of BENCHMARK.json is reported
// with its unit, the audit passes, and directories, sockets and goroutines
// are gone afterwards. It asserts nothing about a time.
func TestSmoke(t *testing.T) {
	s, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range s.Workloads {
		// BENCHMARK.json names the benchmark's first workloads, in order;
		// what follows them is run by hand only.
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have at that place", w.Name)
		}
		if workloads[i].why != w.Why {
			t.Errorf("%s: BENCHMARK.json and the benchmark disagree on why it exists", w.Name)
		}
	}
	small := plan{window: 200 * time.Millisecond, unloaded: 2, loaded: 6, setups: 2}
	dir := t.TempDir()
	goroutines, sockets := runtime.NumGoroutine(), openSockets(t)

	for _, wl := range workloads {
		wl.rows, wl.warmOps = 2000, 1000
		for _, mode := range []struct {
			name   string
			traced bool
			want   []specMetric
		}{{"plain", false, s.EndToEnd}, {"traced", true, s.PerLayer}} {
			if mode.traced && !wl.files && !wl.failover {
				continue
			}
			t.Run(wl.name+"/"+mode.name, func(t *testing.T) {
				res, err := runWorkload(wl, small, 1, mode.traced, dir, "")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					if got, ok := res.Metrics[m.Name]; !ok {
						t.Errorf("metric %s is missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}

	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("data directory not empty afterwards: %v %v", left, err)
	}
	// Goroutines and sockets wind down asynchronously once their
	// endpoints close: wait for them rather than sleep a fixed time.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines || openSockets(t) > sockets {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines (was %d), %d open sockets (was %d) afterwards\n%s",
				runtime.NumGoroutine(), goroutines, openSockets(t), sockets, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// openSockets counts the process's open sockets, listening or connected.
// (Open files are not counted: core.Node.Stop leaves the log's segment files
// to the garbage collector.)
func openSockets(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open files: %v", err)
	}
	n := 0
	for _, e := range ents {
		if target, _ := os.Readlink("/proc/self/fd/" + e.Name()); strings.HasPrefix(target, "socket:") {
			n++
		}
	}
	return n
}
