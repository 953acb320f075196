package transport_test

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"spinnaker/internal/sim"
	"spinnaker/internal/transport"
)

// callEndpoint is what both endpoint types offer a caller.
type callEndpoint interface {
	transport.Endpoint
	SetCallTimeout(time.Duration)
}

// endpointPairs builds two connected endpoints "a" and "b" of each type.
var endpointPairs = []struct {
	name string
	pair func(t *testing.T) (a, b callEndpoint)
}{
	{"local", func(t *testing.T) (a, b callEndpoint) {
		net := transport.NewNetwork(0)
		t.Cleanup(net.Close)
		return net.Join("a"), net.Join("b")
	}},
	{"tcp", func(t *testing.T) (a, b callEndpoint) { return listenPair(t) }},
}

// TestCallContract holds both endpoint types to the one Call contract, now
// that one implementation (the pending-call table) serves them: the matching
// reply; an indefinite ErrPeerClosed as soon as the peer closes with the call
// in flight; an indefinite ErrTimeout at the deadline, after which the
// endpoint still calls normally; an indefinite ErrClosed as soon as the
// caller's own endpoint closes. Deadlines that must not fire are 30 s.
func TestCallContract(t *testing.T) {
	// inFlight starts a call to b, whose handler never replies, and returns
	// the call's outcome once `then` has run with the request received.
	inFlight := func(t *testing.T, a, b callEndpoint, then func()) error {
		a.SetCallTimeout(30 * time.Second)
		received := make(chan struct{})
		b.SetHandler(func(transport.Message) { close(received) })
		errc := make(chan error, 1)
		go func() {
			_, err := a.Call(transport.Message{To: "b"})
			errc <- err
		}()
		<-received
		then()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("call still waiting")
			return nil
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, a, b callEndpoint)
	}{
		{"reply", func(t *testing.T, a, b callEndpoint) {
			b.SetHandler(func(m transport.Message) { _ = b.Reply(m, transport.Message{Kind: 9, Payload: m.Payload}) })
			got, err := a.Call(transport.Message{To: "b", Payload: []byte("ping")})
			if err != nil || !got.Reply || got.From != "b" || got.Kind != 9 || string(got.Payload) != "ping" {
				t.Errorf("Call = %+v, %v", got, err)
			}
		}},
		{"peer closed in flight", func(t *testing.T, a, b callEndpoint) {
			err := inFlight(t, a, b, func() { b.Close() })
			if !errors.Is(err, transport.ErrPeerClosed) || transport.NeverLeft(err) {
				t.Errorf("call: %v, want an indefinite ErrPeerClosed", err)
			}
		}},
		{"timeout", func(t *testing.T, a, b callEndpoint) {
			a.SetCallTimeout(20 * time.Millisecond)
			b.SetHandler(func(m transport.Message) {
				if m.Kind == 0 {
					_ = b.Reply(m, transport.Message{})
				}
			})
			if _, err := a.Call(transport.Message{To: "b", Kind: 1}); !errors.Is(err, transport.ErrTimeout) || transport.NeverLeft(err) {
				t.Errorf("unanswered call: %v, want an indefinite ErrTimeout", err)
			}
			a.SetCallTimeout(30 * time.Second)
			if _, err := a.Call(transport.Message{To: "b"}); err != nil {
				t.Errorf("call after a timeout: %v", err)
			}
		}},
		{"own endpoint closed", func(t *testing.T, a, b callEndpoint) {
			err := inFlight(t, a, b, func() { a.Close() })
			if !errors.Is(err, transport.ErrClosed) || transport.NeverLeft(err) {
				t.Errorf("call: %v, want an indefinite ErrClosed", err)
			}
		}},
	}
	for _, ep := range endpointPairs {
		for _, c := range cases {
			t.Run(ep.name+"/"+c.name, func(t *testing.T) {
				sim.CheckGoroutineLeaks(t)
				a, b := ep.pair(t)
				c.run(t, a, b)
			})
		}
	}
}

// TestRecycledSlotNeverSeesAnotherCallsReply drives 10 000 calls through
// recycled wait slots while every reply is delivered twice (the duplicate
// lands after its call has returned, or in the slot just before it is
// unregistered) and every 50th reply is held past its call's deadline and
// released during the next call. Each request carries its sequence number
// and the server answers with it plus the request's ID, so a reply that
// reached the wrong call shows in either.
func TestRecycledSlotNeverSeesAnotherCallsReply(t *testing.T) {
	net := transport.NewNetwork(0)
	defer net.Close()
	net.SetLinkFaults("b", "a", transport.LinkFaults{DupProb: 1})
	a, b := net.Join("a"), net.Join("b")
	var held *transport.Message // touched only by the a→b link's goroutine
	b.SetHandler(func(m transport.Message) {
		if held != nil {
			_ = b.Reply(*held, transport.Message{Payload: held.Payload})
			held = nil
		}
		m.Payload = binary.LittleEndian.AppendUint64(m.Payload, m.ID)
		if binary.LittleEndian.Uint64(m.Payload)%50 == 49 {
			held = &m
			return
		}
		_ = b.Reply(m, transport.Message{Payload: m.Payload})
	})
	for i := uint64(0); i < 10_000; i++ {
		late := i%50 == 49
		a.SetCallTimeout(30 * time.Second)
		if late {
			a.SetCallTimeout(time.Millisecond)
		}
		reply, err := a.Call(transport.Message{To: "b", Payload: binary.LittleEndian.AppendUint64(nil, i)})
		if late {
			if !errors.Is(err, transport.ErrTimeout) {
				t.Fatalf("call %d: %v, want ErrTimeout (its reply is held)", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		seq, id := binary.LittleEndian.Uint64(reply.Payload), binary.LittleEndian.Uint64(reply.Payload[8:])
		if seq != i || id != reply.ID {
			t.Fatalf("call %d got the reply to call %d (request id %d, reply id %d)", i, seq, id, reply.ID)
		}
	}
}

// TestLateResetNotDeliveredToLaterCall: the reset a closing peer sends finds
// no call once the call it was meant for has timed out, and the next call,
// to the peer's next incarnation, completes instead of failing with that
// stale ErrPeerClosed.
func TestLateResetNotDeliveredToLaterCall(t *testing.T) {
	net := transport.NewNetwork(0)
	defer net.Close()
	a := net.Join("a")
	for i := 0; i < 200; i++ {
		b := net.Join("b")
		b.SetHandler(func(m transport.Message) {
			if m.Kind == 0 {
				_ = b.Reply(m, transport.Message{})
			}
		})
		a.SetCallTimeout(time.Millisecond)
		if _, err := a.Call(transport.Message{To: "b", Kind: 1}); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("round %d: unanswered call: %v, want ErrTimeout", i, err)
		}
		b.Close() // resets a's calls in flight to b: there are none
		b = net.Join("b")
		b.SetHandler(func(m transport.Message) { _ = b.Reply(m, transport.Message{}) })
		a.SetCallTimeout(30 * time.Second)
		if _, err := a.Call(transport.Message{To: "b"}); err != nil {
			t.Fatalf("round %d: call to the re-joined peer: %v", i, err)
		}
	}
}

// TestCallAllocs: a Call→Reply round trip over the in-process network
// allocates at most one object — the wait slot (reply channel and deadline
// timer) is recycled, where it used to be five objects per call.
func TestCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	net := transport.NewNetwork(0)
	defer net.Close()
	a, b := net.Join("a"), net.Join("b")
	payload := []byte("pong")
	b.SetHandler(func(m transport.Message) { _ = b.Reply(m, transport.Message{Payload: payload}) })
	req := transport.Message{To: "b", Payload: []byte("ping")}
	var err error
	if n := testing.AllocsPerRun(1000, func() { _, err = a.Call(req) }); n > 1 || err != nil {
		t.Errorf("Call→Reply: %v allocs/op (want ≤ 1), err %v", n, err)
	}
}
