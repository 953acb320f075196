package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPEndpoint is an Endpoint over real TCP sockets, used when running
// Spinnaker nodes as separate processes (cmd/spinnaker-server). One
// outbound connection per destination is maintained; the remote peer's
// reader goroutine preserves in-order delivery per connection, matching the
// paper's design choice (Appendix A.1).
type TCPEndpoint struct {
	id      string
	addrs   map[string]string // node id → host:port
	ln      net.Listener
	handler atomic.Value // Handler
	closed  atomic.Bool
	callSeq atomic.Uint64
	calls   calls

	mu       sync.Mutex
	conns    map[string]*tcpConn   // outbound, by destination
	accepted map[net.Conn]struct{} // inbound; Close resets them
}

// tcpConn is an outbound connection. Replies come back on the peer's own
// outbound connection, so nothing is ever read from this one: its reader
// (watchConn) returns only when the peer closes or resets it.
type tcpConn struct {
	mu sync.Mutex // serializes writes
	c  net.Conn
}

// ListenTCP starts an endpoint for node id listening on addrs[id].
// The addrs map must name every node the endpoint will talk to.
func ListenTCP(id string, addrs map[string]string) (*TCPEndpoint, error) {
	addr, ok := addrs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s has no address", ErrUnknownNode, id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		id:       id,
		addrs:    addrs,
		ln:       ln,
		conns:    make(map[string]*tcpConn),
		accepted: make(map[net.Conn]struct{}),
		calls:    newCalls(),
	}
	go e.acceptLoop()
	return e, nil
}

// Addr returns the bound listen address (useful with ":0" ports).
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// SetCallTimeout overrides the per-Call deadline; zero restores
// DefaultCallTimeout. See LocalEndpoint.SetCallTimeout.
func (e *TCPEndpoint) SetCallTimeout(d time.Duration) {
	e.calls.timeout.Store(int64(d))
}

func (e *TCPEndpoint) acceptLoop() {
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed.Load() {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accepted[c] = struct{}{}
		e.mu.Unlock()
		go e.readLoop(c)
	}
}

func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.accepted, c)
		e.mu.Unlock()
	}()
	var (
		lenBuf [4]byte
		peer   string // the last frame's From: one connection, one sender
	)
	for {
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if size > 64<<20 {
			return // refuse absurd frames
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		m, err := decodeMessage(body, peer, e.id)
		if err != nil {
			return
		}
		peer = m.From
		e.calls.dispatch(m, &e.handler)
	}
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() string { return e.id }

// SetHandler implements Endpoint.
func (e *TCPEndpoint) SetHandler(h Handler) { e.handler.Store(h) }

// conn returns (dialing if necessary) the outbound connection to node. Its
// errors are all NeverLeft: nothing has been written yet.
func (e *TCPEndpoint) conn(node string) (*tcpConn, error) {
	e.mu.Lock()
	tc, ok := e.conns[node]
	e.mu.Unlock()
	if ok {
		return tc, nil
	}
	addr, ok := e.addrs[node]
	if !ok {
		return nil, notSent(fmt.Errorf("%w: %s", ErrUnknownNode, node))
	}
	c, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, notSent(fmt.Errorf("transport: dial %s: %w", node, err))
	}
	tc = &tcpConn{c: c}
	e.mu.Lock()
	if cur, ok := e.conns[node]; ok {
		e.mu.Unlock()
		c.Close()
		return cur, nil
	}
	if e.closed.Load() { // Close has emptied conns; do not refill it
		e.mu.Unlock()
		c.Close()
		return nil, errSendClosed
	}
	e.conns[node] = tc
	e.mu.Unlock()
	go e.watchConn(node, tc)
	return tc, nil
}

// watchConn is an outbound connection's reader: it blocks until the peer
// closes or resets the connection (EOF/RST — the peer process died or its
// endpoint closed) or this side drops it, then forgets the connection, so
// the next Send re-dials, and fails the calls in flight to that peer.
func (e *TCPEndpoint) watchConn(node string, tc *tcpConn) {
	_, _ = io.Copy(io.Discard, tc.c)
	e.dropConn(node, tc)
	e.calls.reset(node)
}

// dropConn forgets and closes a broken outbound connection.
func (e *TCPEndpoint) dropConn(node string, tc *tcpConn) {
	e.mu.Lock()
	if e.conns[node] == tc {
		delete(e.conns, node)
	}
	e.mu.Unlock()
	tc.c.Close()
}

// Send implements Endpoint.
func (e *TCPEndpoint) Send(m Message) error {
	if e.closed.Load() {
		return errSendClosed
	}
	m.From = e.id
	tc, err := e.conn(m.To)
	if err != nil {
		return err
	}
	buf := EncodeMessage(m)
	tc.mu.Lock()
	_, err = tc.c.Write(buf)
	tc.mu.Unlock()
	if err != nil {
		// Connection broke mid-write. Part of the frame may be on the
		// wire, so this is not a NeverLeft error. Forget the connection
		// so the next send re-dials.
		e.dropConn(m.To, tc)
		return fmt.Errorf("transport: send to %s: %w", m.To, err)
	}
	return nil
}

// Call implements Endpoint.
func (e *TCPEndpoint) Call(m Message) (Message, error) {
	return e.calls.call(e, e.callSeq.Add(1), m)
}

// Reply implements Endpoint.
func (e *TCPEndpoint) Reply(req, m Message) error { return e.Send(asReply(req, m)) }

// Close implements Endpoint. Closing the accepted connections is what a
// peer sees as the reset that fails its sends and in-flight calls.
func (e *TCPEndpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(e.calls.done)
	err := e.ln.Close()
	e.mu.Lock()
	for _, tc := range e.conns {
		tc.c.Close()
	}
	e.conns = make(map[string]*tcpConn)
	for c := range e.accepted {
		c.Close()
	}
	e.mu.Unlock()
	return err
}

var _ Endpoint = (*TCPEndpoint)(nil)
