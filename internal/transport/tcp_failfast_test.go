package transport_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"spinnaker/internal/sim"
	"spinnaker/internal/transport"
)

// listenPair starts two loopback endpoints that know each other, plus the
// address of a port nothing listens on under the id "dead".
func listenPair(t *testing.T) (a, b *transport.TCPEndpoint) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[string]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0", "dead": ln.Addr().String()}
	ln.Close()
	if a, err = transport.ListenTCP("a", addrs); err != nil {
		t.Fatal(err)
	}
	addrs["a"] = a.Addr()
	if b, err = transport.ListenTCP("b", addrs); err != nil {
		t.Fatal(err)
	}
	addrs["b"] = b.Addr() // both endpoints share addrs, complete before any dial
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestTCPDefiniteErrors: failures before a byte is written — no address, a
// refused dial, the sender's own endpoint closed — are NeverLeft.
func TestTCPDefiniteErrors(t *testing.T) {
	sim.CheckGoroutineLeaks(t)
	a, _ := listenPair(t)
	if err := a.Send(transport.Message{To: "ghost"}); !errors.Is(err, transport.ErrUnknownNode) || !transport.NeverLeft(err) {
		t.Errorf("unknown node: %v, want a NeverLeft ErrUnknownNode", err)
	}
	if _, err := a.Call(transport.Message{To: "dead"}); err == nil || !transport.NeverLeft(err) {
		t.Errorf("dial refused: %v, want a NeverLeft error", err)
	}
	a.Close()
	if err := a.Send(transport.Message{To: "b"}); !errors.Is(err, transport.ErrClosed) || !transport.NeverLeft(err) {
		t.Errorf("send from closed endpoint: %v, want a NeverLeft ErrClosed", err)
	}
}

// TestTCPCallFailsWhenPeerClosesInFlight: closing an endpoint resets the
// connections it accepted, so a peer's call in flight to it returns at once
// (its 30 s timer never fires) with an indefinite error, the broken
// connection is forgotten, and the next send is refused at the dial.
func TestTCPCallFailsWhenPeerClosesInFlight(t *testing.T) {
	sim.CheckGoroutineLeaks(t)
	a, b := listenPair(t)
	a.SetCallTimeout(30 * time.Second)
	received := make(chan struct{})
	b.SetHandler(func(transport.Message) { close(received) }) // never replies
	errc := make(chan error, 1)
	go func() {
		_, err := a.Call(transport.Message{To: "b"})
		errc <- err
	}()
	<-received
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, transport.ErrPeerClosed) || transport.NeverLeft(err) {
			t.Errorf("in-flight call: %v, want an indefinite ErrPeerClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call still waiting after its peer closed")
	}
	if err := a.Send(transport.Message{To: "b"}); err == nil || !transport.NeverLeft(err) {
		t.Errorf("send after the peer closed: %v, want a NeverLeft error", err)
	}
}

// TestTCPCallTimeout: a live peer that never answers costs the configured
// deadline and ends in ErrTimeout, which is indefinite; the late reply is
// dropped without wedging the connection's reader.
func TestTCPCallTimeout(t *testing.T) {
	sim.CheckGoroutineLeaks(t)
	a, b := listenPair(t)
	a.SetCallTimeout(20 * time.Millisecond)
	release := make(chan struct{})
	b.SetHandler(func(m transport.Message) {
		if m.Kind == 1 {
			<-release
		}
		_ = b.Reply(m, transport.Message{})
	})
	if _, err := a.Call(transport.Message{To: "b", Kind: 1}); !errors.Is(err, transport.ErrTimeout) || transport.NeverLeft(err) {
		t.Errorf("unanswered call: %v, want an indefinite ErrTimeout", err)
	}
	close(release)
	a.SetCallTimeout(0)
	if _, err := a.Call(transport.Message{To: "b"}); err != nil {
		t.Errorf("call after a late reply: %v", err)
	}
}
