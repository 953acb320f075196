package sim

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/transport"
)

// timeoutCounter counts the calls that ended in transport.ErrTimeout.
type timeoutCounter struct {
	transport.Endpoint
	timeouts atomic.Int64
}

func (e *timeoutCounter) Call(m transport.Message) (transport.Message, error) {
	resp, err := e.Endpoint.Call(m)
	if errors.Is(err, transport.ErrTimeout) {
		e.timeouts.Add(1)
	}
	return resp, err
}

// TestFailoverDoesNotWaitForCallTimeout crashes the leader twice under
// running writers whose call timeout is 30 s. Every put must complete and no
// call may end in ErrTimeout: the client learns of the dead leader from the
// connection reset and of the new one from the leader znode, so the timeout
// is no longer the failure detector (with it as the detector, the puts in
// flight at each crash would sit out the 30 s).
func TestFailoverDoesNotWaitForCallTimeout(t *testing.T) {
	CheckGoroutineLeaks(t)
	sc, err := NewSpinnakerCluster(Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Stop()
	if err := sc.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	local := sc.Net.Join("failfast-client")
	local.SetCallTimeout(30 * time.Second)
	ep := &timeoutCounter{Endpoint: local}
	c := core.NewClient(sc.CurrentLayout(), ep, sc.Coord, 1)
	defer c.Close()

	const writers = 4
	var (
		wg           sync.WaitGroup
		stop         atomic.Bool
		acked, fails atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := c.Put(sc.Key(w), "c", []byte{byte(i)}); err != nil {
					fails.Add(1)
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
				acked.Add(1)
			}
		}(w)
	}
	// awaitAcks waits for n more acknowledged puts.
	awaitAcks := func(n int64) {
		t.Helper()
		target := acked.Load() + n
		deadline := time.Now().Add(20 * time.Second)
		for acked.Load() < target && fails.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("writers stalled at %d acknowledged puts, want %d", acked.Load(), target)
			}
			time.Sleep(time.Millisecond)
		}
	}
	rangeID := sc.Layout.RangeOf(sc.Key(0))
	for crash := 0; crash < 2; crash++ {
		awaitAcks(100)
		leader := sc.LeaderOf(rangeID)
		if err := sc.CrashNode(leader); err != nil {
			t.Fatal(err)
		}
		awaitAcks(100)
		if err := sc.RestartNode(leader); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := ep.timeouts.Load(); n != 0 {
		t.Errorf("%d calls ended in ErrTimeout, want 0", n)
	}
}
