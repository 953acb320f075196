package sim

import (
	"runtime"
	"time"

	"spinnaker/internal/simtime"
)

// TB is the slice of *testing.T the leak sentinel needs. Declaring it
// here (instead of importing the testing package) keeps testing out of
// non-test builds that link internal/sim.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// leakSlack is how many goroutines above the baseline the sentinel
// tolerates: the runtime starts service goroutines (timer scavenger,
// GC workers visible to NumGoroutine) lazily, so the first test that
// touches a timer can legitimately end one goroutine up.
const leakSlack = 1

// leakSettle bounds how long the sentinel waits for goroutine counts
// to drain back to the baseline before declaring a leak: Stop paths
// are synchronous, but the goroutines they release (link pumps,
// election loops, force/ack closures) need a few scheduler passes to
// observe their stop channels and exit. A variable, not a constant,
// so the sentinel's own test can shorten the wait on a deliberate
// leak.
var leakSettle = 5 * time.Second

// CheckGoroutineLeaks arms a goroutine-leak sentinel for a cluster
// test: call it FIRST, before NewSpinnakerCluster, so
// its cleanup runs after the test's deferred Stop. The cleanup
// compares runtime.NumGoroutine against the baseline taken here,
// waiting up to leakSettle for stragglers, and on a leak fails the
// test with a full goroutine stack dump — turning "Stop forgot a
// loop" from a slow CI-wide drain into a named stack trace.
func CheckGoroutineLeaks(t TB) {
	t.Helper()
	before := settledGoroutines()
	t.Cleanup(func() {
		deadline := simtime.Now().Add(leakSettle)
		after := runtime.NumGoroutine()
		for after > before+leakSlack && simtime.Now().Before(deadline) {
			simtime.Sleep(10 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after <= before+leakSlack {
			return
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at test start, %d after Stop (slack %d)\n%s",
			before, after, leakSlack, buf[:n])
	})
}

// settledGoroutines waits (briefly, bounded) for the goroutine count to
// hold still across consecutive polls before reporting it. A previous
// test's teardown may still be draining when the next test arms its
// sentinel; baselining against that transient peak would let a real
// leak of equal size hide inside it.
func settledGoroutines() int {
	last := runtime.NumGoroutine()
	stable := 0
	for i := 0; i < 100 && stable < 5; i++ {
		simtime.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n == last {
			stable++
		} else {
			stable = 0
			last = n
		}
	}
	return last
}
