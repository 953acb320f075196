package transport_test

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinnaker/internal/sim"
	"spinnaker/internal/transport"
)

// TestTCPOversizedFrameRefused: a frame over the reader's 64 MiB limit is
// refused at Send with a NeverLeft error before anything is queued, so a call
// in flight on the same connection still gets its reply. Written, the frame
// would make the peer drop the connection and so reset every call on it.
func TestTCPOversizedFrameRefused(t *testing.T) {
	sim.CheckGoroutineLeaks(t)
	a, b := listenPair(t)
	a.SetCallTimeout(30 * time.Second)
	received, release := make(chan struct{}), make(chan struct{})
	b.SetHandler(func(m transport.Message) {
		close(received)
		go func() { // keep reading the connection while the call waits
			<-release
			_ = b.Reply(m, transport.Message{Payload: m.Payload})
		}()
	})
	type result struct {
		m   transport.Message
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := a.Call(transport.Message{To: "b", Payload: []byte("in flight")})
		done <- result{m, err}
	}()
	<-received
	if err := a.Send(transport.Message{To: "b", Payload: make([]byte, 64<<20)}); err == nil || !transport.NeverLeft(err) {
		t.Errorf("oversized send: %v, want a NeverLeft error", err)
	}
	close(release)
	select {
	case r := <-done:
		if r.err != nil || string(r.m.Payload) != "in flight" {
			t.Errorf("call in flight: %+v, %v; want its reply", r.m, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("call in flight got no reply")
	}
}

// TestTCPConcurrentSenders: 16 goroutines share one connection, each sending
// 2 000 frames whose payloads run from empty through sizes around the
// reader's 64 KiB buffer to 300 KiB. The receiver keeps every message and
// checks at the end each sender's order and every payload byte, so a payload
// that aliased the reader's reused buffer shows as overwritten.
func TestTCPConcurrentSenders(t *testing.T) {
	const senders, frames = 16, 2000
	a, b := listenPair(t)
	var (
		mu  sync.Mutex
		got []transport.Message
		all = make(chan struct{})
	)
	b.SetHandler(func(m transport.Message) {
		mu.Lock()
		defer mu.Unlock()
		if got = append(got, m); len(got) == senders*frames {
			close(all)
		}
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				m := transport.Message{To: "b", Cohort: uint32(s), ID: uint64(i), Payload: framePayload(s, i)}
				if err := a.Send(m); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("delivered %d of %d frames", len(got), senders*frames)
	}
	mu.Lock()
	defer mu.Unlock()
	next := make([]uint64, senders)
	for _, m := range got {
		s := m.Cohort
		if m.ID != next[s] {
			t.Fatalf("sender %d: frame %d arrived where %d was due", s, m.ID, next[s])
		}
		next[s]++
		if want := framePayload(int(s), int(m.ID)); !bytes.Equal(m.Payload, want) {
			t.Fatalf("sender %d frame %d: %d-byte payload differs from the %d bytes sent", s, m.ID, len(m.Payload), len(want))
		}
	}
}

// framePayload is frame i of sender s. Sizes cycle through empty, small,
// around the reader's 64 KiB buffer (either side of it), and 300 KiB; every
// byte depends on s, i and its offset.
func framePayload(s, i int) []byte {
	n := (i*13 + s) % 200
	switch {
	case i%1000 == 999:
		n = 300 << 10
	case i%200 == 100:
		n = 64<<10 - 32 + (i/200*7+s)%64
	case i%7 == 0:
		n = 0
	}
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(s*31 + i*7 + j*3)
	}
	return p
}

// TestTCPCallAllocs: a loopback Call→Reply round trip with 8-byte payloads
// allocates one object, the reply payload the caller's reader copies out of
// its chunk. The request's payload is a sub-slice of the callee's chunk, each
// frame is encoded into its connection's reused write buffer, and the wait
// slot is recycled.
func TestTCPCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	a, b := listenPair(t)
	b.SetHandler(func(m transport.Message) { _ = b.Reply(m, transport.Message{Payload: m.Payload}) })
	req := transport.Message{To: "b", Payload: []byte("8 bytes!")}
	var err error
	if n := testing.AllocsPerRun(1000, func() { _, err = a.Call(req) }); n > 1 || err != nil {
		t.Errorf("Call→Reply over TCP: %v allocs/op (want ≤ 1), err %v", n, err)
	}
}

// TestTCPReceiveAllocs: request frames handled over loopback cost the
// receiving reader no allocation each. It reads them into 64 KiB chunks and
// hands each payload out as a sub-slice, so 5 000 frames of 36 bytes cost
// about three chunks; the sender encodes into its reused write buffers.
func TestTCPReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const frames = 5000
	a, b := listenPair(t)
	var (
		handled atomic.Int64
		want    atomic.Int64
		done    = make(chan struct{}, 1)
	)
	b.SetHandler(func(transport.Message) {
		if handled.Add(1) == want.Load() {
			done <- struct{}{}
		}
	})
	m := transport.Message{To: "b", Kind: 3, Payload: []byte("8 bytes!")}
	var err error
	n := testing.AllocsPerRun(3, func() {
		want.Add(frames)
		for i := 0; i < frames && err == nil; i++ {
			err = a.Send(m)
		}
		<-done
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := float64(frames/100 + 10); n > limit {
		t.Errorf("%d request frames: %v allocs (want ≤ %v)", frames, n, limit)
	}
}

// TestTCPSendAllocs: a Send on an established connection allocates nothing.
// The receiver is a bare socket that discards what it reads, so nothing is
// decoded, and allocated, on the other side.
func TestTCPSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	ready := make(chan struct{})
	go func() {
		c, err := sink.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64<<10)
		for first := true; ; first = false {
			if _, err := c.Read(buf); err != nil {
				return
			}
			if first {
				close(ready)
			}
		}
	}()
	a, err := transport.ListenTCP("a", map[string]string{"a": "127.0.0.1:0", "sink": sink.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	m := transport.Message{To: "sink", Kind: 3, Payload: make([]byte, 1024)}
	if err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	<-ready
	if n := testing.AllocsPerRun(1000, func() { err = a.Send(m) }); n != 0 || err != nil {
		t.Errorf("Send: %v allocs/op (want 0), err %v", n, err)
	}
}
