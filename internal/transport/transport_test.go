package transport

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	m := Message{
		From: "nodeA", To: "nodeB", Kind: 3, Cohort: 7,
		ID: 42, Reply: true, Payload: []byte("payload bytes"),
	}
	buf := EncodeMessage(m)
	got, err := DecodeMessage(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.To != m.To || got.Kind != m.Kind ||
		got.Cohort != m.Cohort || got.ID != m.ID || got.Reply != m.Reply ||
		!bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestMessageCodecTruncation(t *testing.T) {
	m := Message{From: "a", To: "b", Payload: []byte("xyz")}
	buf := EncodeMessage(m)[4:]
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeMessage(buf[:cut]); err == nil {
			t.Errorf("cut %d decoded successfully", cut)
		}
	}
}

func TestMessageCodecProperty(t *testing.T) {
	f := func(from, to string, kind uint8, cohort uint32, id uint64, reply bool, payload []byte) bool {
		if len(from) > 1<<15 || len(to) > 1<<15 {
			return true
		}
		m := Message{From: from, To: to, Kind: kind, Cohort: cohort, ID: id, Reply: reply, Payload: payload}
		got, err := DecodeMessage(EncodeMessage(m)[4:])
		if err != nil {
			return false
		}
		return got.From == from && got.To == to && got.Kind == kind &&
			got.Cohort == cohort && got.ID == id && got.Reply == reply &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLocalSendReceive(t *testing.T) {
	net := NewNetwork(0)
	a := net.Join("a")
	b := net.Join("b")
	got := make(chan Message, 1)
	b.SetHandler(func(m Message) { got <- m })
	if err := a.Send(Message{To: "b", Kind: 1, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "a" || string(m.Payload) != "hi" {
			t.Errorf("received %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestLocalInOrderPerLink(t *testing.T) {
	net := NewNetwork(100 * time.Microsecond)
	a := net.Join("a")
	b := net.Join("b")
	const n = 200
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	b.SetHandler(func(m Message) {
		mu.Lock()
		got = append(got, int(m.ID))
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := a.Send(Message{To: "b", ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d of %d delivered", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, v)
		}
	}
}

func TestLocalCallReply(t *testing.T) {
	net := NewNetwork(0)
	client := net.Join("client")
	server := net.Join("server")
	server.SetHandler(func(m Message) {
		if err := server.Reply(m, Message{Payload: append([]byte("echo:"), m.Payload...)}); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	resp, err := client.Call(Message{To: "server", Payload: []byte("ping")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "echo:ping" {
		t.Errorf("reply payload = %q", resp.Payload)
	}
}

func TestLocalConcurrentCalls(t *testing.T) {
	net := NewNetwork(50 * time.Microsecond)
	server := net.Join("server")
	server.SetHandler(func(m Message) {
		_ = server.Reply(m, Message{Payload: m.Payload})
	})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ep := net.Join(fmt.Sprintf("client%d", c))
			for i := 0; i < 50; i++ {
				want := fmt.Sprintf("c%d-%d", c, i)
				resp, err := ep.Call(Message{To: "server", Payload: []byte(want)})
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if string(resp.Payload) != want {
					t.Errorf("cross-talk: got %q want %q", resp.Payload, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestLocalPartitionDropsAndHeals(t *testing.T) {
	net := NewNetwork(0)
	a := net.Join("a")
	b := net.Join("b")
	var count sync.Map
	b.SetHandler(func(m Message) { count.Store(m.ID, true) })

	net.Partition("a", "b")
	if err := a.Send(Message{To: "b", ID: 1}); err != nil {
		t.Fatal(err) // partitioned sends are silent drops, not errors
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := count.Load(uint64(1)); ok {
		t.Fatal("message crossed a partition")
	}

	net.Heal("a", "b")
	if err := a.Send(Message{To: "b", ID: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		if _, ok := count.Load(uint64(2)); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message not delivered after heal")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLocalIsolate(t *testing.T) {
	net := NewNetwork(0)
	a := net.Join("a")
	b := net.Join("b")
	c := net.Join("c")
	var deliveries sync.Map
	handler := func(id string) Handler {
		return func(m Message) { deliveries.Store(id+m.From, true) }
	}
	b.SetHandler(handler("b"))
	c.SetHandler(handler("c"))

	net.Isolate("a")
	_ = a.Send(Message{To: "b"})
	_ = a.Send(Message{To: "c"})
	time.Sleep(20 * time.Millisecond)
	if _, ok := deliveries.Load("ba"); ok {
		t.Error("isolated node reached b")
	}
	net.HealAll()
	_ = a.Send(Message{To: "b"})
	deadline := time.Now().Add(time.Second)
	for {
		if _, ok := deliveries.Load("ba"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message not delivered after HealAll")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLocalSendToClosedPeerNeverLeft pins connection-refused semantics: a
// send to a closed endpoint fails at once with a definite error, and nothing
// is enqueued (no link, hence no delivery goroutine, is ever created).
func TestLocalSendToClosedPeerNeverLeft(t *testing.T) {
	net := NewNetwork(0)
	a := net.Join("a")
	b := net.Join("b")
	var got atomic.Int64
	b.SetHandler(func(Message) { got.Add(1) })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"send": a.Send(Message{To: "b", ID: 9}),
		"call": func() error { _, err := a.Call(Message{To: "b"}); return err }(),
	} {
		if !errors.Is(err, ErrPeerClosed) || !NeverLeft(err) {
			t.Errorf("%s to closed peer: %v, want a NeverLeft ErrPeerClosed", name, err)
		}
	}
	net.mu.Lock()
	links := len(net.links)
	net.mu.Unlock()
	if links != 0 || got.Load() != 0 {
		t.Errorf("closed peer: %d links created, %d messages handled; want none", links, got.Load())
	}
	if err := b.Send(Message{To: "a"}); !errors.Is(err, ErrClosed) || !NeverLeft(err) {
		t.Errorf("send from closed endpoint: %v, want a NeverLeft ErrClosed", err)
	}
}

// TestLocalCallFailsWhenPeerClosesInFlight pins connection-reset semantics:
// a call the peer has received returns as soon as the peer closes — the 30 s
// call timer never gets to fire — and the error is indefinite, because the
// peer may have acted on the request.
func TestLocalCallFailsWhenPeerClosesInFlight(t *testing.T) {
	net := NewNetwork(0)
	defer net.Close()
	a := net.Join("a")
	a.SetCallTimeout(30 * time.Second)
	b := net.Join("b")
	received := make(chan struct{})
	b.SetHandler(func(Message) { close(received) }) // never replies
	errc := make(chan error, 1)
	go func() {
		_, err := a.Call(Message{To: "b"})
		errc <- err
	}()
	<-received
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerClosed) || NeverLeft(err) || errors.Is(err, ErrTimeout) {
			t.Errorf("in-flight call: %v, want an indefinite ErrPeerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call still waiting after its peer closed")
	}
}

// TestLocalErrorClasses checks the remaining error classes against the one
// predicate: a partition keeps its silent drop and ends in ErrTimeout
// (indefinite) even when the far side dies meanwhile, the caller's own close
// mid-call is indefinite, and an overloaded link is definite.
func TestLocalErrorClasses(t *testing.T) {
	net := NewNetwork(0)
	defer net.Close()
	a := net.Join("a")
	b := net.Join("b")
	b.SetHandler(func(Message) {})

	net.Partition("a", "b")
	a.SetCallTimeout(20 * time.Millisecond)
	b.Close() // unseen across the partition, as a TCP peer's death would be
	if _, err := a.Call(Message{To: "b"}); !errors.Is(err, ErrTimeout) || NeverLeft(err) {
		t.Errorf("call into a partition: %v, want an indefinite ErrTimeout", err)
	}

	a.SetCallTimeout(30 * time.Second)
	errc := make(chan error, 1)
	go func() {
		_, err := a.Call(Message{To: "b"})
		errc <- err
	}()
	for {
		a.calls.mu.Lock()
		n := len(a.calls.pending)
		a.calls.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	a.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) || NeverLeft(err) {
		t.Errorf("own endpoint closed mid-call: %v, want an indefinite ErrClosed", err)
	}

	c := net.Join("c")
	d := net.Join("d")
	block := make(chan struct{})
	defer close(block)
	d.SetHandler(func(Message) { <-block })
	var err error
	for i := 0; i <= linkBuffer+1 && err == nil; i++ {
		err = c.Send(Message{To: "d"})
	}
	if err == nil || !NeverLeft(err) {
		t.Errorf("send on a full link: %v, want a NeverLeft error", err)
	}
}

func TestLocalUnknownDestination(t *testing.T) {
	net := NewNetwork(0)
	a := net.Join("a")
	if err := a.Send(Message{To: "ghost"}); !errors.Is(err, ErrUnknownNode) || !NeverLeft(err) {
		t.Errorf("send to unknown node: %v, want a NeverLeft ErrUnknownNode", err)
	}
}

func TestLocalRejoinReplacesEndpoint(t *testing.T) {
	net := NewNetwork(0)
	a := net.Join("a")
	b1 := net.Join("b")
	b1.SetHandler(func(Message) {})
	_ = b1.Close()

	b2 := net.Join("b") // restarted node
	got := make(chan Message, 1)
	b2.SetHandler(func(m Message) { got <- m })
	if err := a.Send(Message{To: "b", ID: 5}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.ID != 5 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("restarted endpoint got nothing")
	}
}

func TestLocalDelayApplied(t *testing.T) {
	const delay = 5 * time.Millisecond
	net := NewNetwork(delay)
	a := net.Join("a")
	b := net.Join("b")
	b.SetHandler(func(m Message) { _ = b.Reply(m, Message{}) })
	start := time.Now()
	if _, err := a.Call(Message{To: "b"}); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 2*delay {
		t.Errorf("round trip %v < 2×delay %v", rtt, delay)
	}
}

func TestTCPSendReceiveAndCall(t *testing.T) {
	addrs := map[string]string{
		"n1": "127.0.0.1:0",
		"n2": "127.0.0.1:0",
	}
	e1, err := ListenTCP("n1", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	addrs["n1"] = e1.Addr()
	e2, err := ListenTCP("n2", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	addrs["n2"] = e2.Addr()
	// Both endpoints share the addrs map (updated before any dial).

	e2.SetHandler(func(m Message) {
		_ = e2.Reply(m, Message{Payload: append([]byte("pong:"), m.Payload...)})
	})
	got := make(chan Message, 1)
	e1.SetHandler(func(m Message) { got <- m })

	resp, err := e1.Call(Message{To: "n2", Kind: 2, Payload: []byte("ping")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "pong:ping" {
		t.Errorf("reply = %q", resp.Payload)
	}

	if err := e2.Send(Message{To: "n1", Kind: 9, Payload: []byte("oneway")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != 9 || string(m.Payload) != "oneway" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("one-way TCP message not delivered")
	}
}

func TestTCPInOrder(t *testing.T) {
	addrs := map[string]string{"s": "127.0.0.1:0", "c": "127.0.0.1:0"}
	server, err := ListenTCP("s", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	addrs["s"] = server.Addr()
	client, err := ListenTCP("c", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	addrs["c"] = client.Addr()

	const n = 100
	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{})
	server.SetHandler(func(m Message) {
		mu.Lock()
		got = append(got, m.ID)
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		if err := client.Send(Message{To: "s", ID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

// TestNetworkCloseStopsLinkGoroutines pins that Close terminates every
// link's delivery goroutine and keeps straggler sends from spawning new
// ones. Before Close existed, benchmark processes cycling many clusters
// accumulated one blocked goroutine per link, each pinning its dead
// cluster's heap into the GC live set.
func TestNetworkCloseStopsLinkGoroutines(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	net := NewNetwork(0)
	a := net.Join("a")
	b := net.Join("b")
	got := make(chan Message, 1)
	b.SetHandler(func(m Message) { got <- m })
	if err := a.Send(Message{To: "b", Kind: 1}); err != nil {
		t.Fatal(err)
	}
	<-got
	if err := b.Send(Message{To: "a", Kind: 1}); err != nil {
		t.Fatal(err)
	}
	net.Close()
	net.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines still running after Close (started with %d)", n, base)
	}
	// A straggler send after Close must not spawn a delivery goroutine.
	if err := a.Send(Message{To: "b", Kind: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("straggler send spawned a goroutine (%d > %d)", n, base)
	}
}
