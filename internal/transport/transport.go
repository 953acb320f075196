// Package transport provides the reliable, in-order messaging layer that
// Spinnaker's replication protocol is built on. The paper (Appendix A.1)
// notes that Spinnaker "uses reliable in-order messages based on TCP
// sockets to simplify its replication protocol" — in contrast to basic
// Multi-Paxos, which assumes an unreliable message layer.
//
// Two implementations are provided: a simulated in-process network (used
// by the test suite, cmd/spinnaker-server and most benchmark workloads to
// run the paper's cluster in one process) and a real TCP transport, which
// the benchmark's mixed-*-tcp workloads run over loopback. Both guarantee
// in-order delivery per sender → receiver link, like a TCP connection.
//
// Beneath that TCP-like base, the simulated network carries a seeded
// per-link fault plane for the nemesis harness: per-message drops,
// duplication, reordering, and jittered delay (LinkFaults), plus symmetric
// partitions, one-way partitions (PartitionOneWay), whole-node isolation,
// a per-message delivery cost that bounds per-link message rate
// (SetMessageCost), and crash injection via endpoint replacement. Fault
// decisions derive from per-link RNGs seeded from a single run seed, so a
// failing schedule replays exactly.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Message is the unit of communication. ID correlates requests with
// replies; Kind is interpreted by the application layer.
type Message struct {
	From    string
	To      string
	Kind    uint8
	Cohort  uint32
	ID      uint64
	Reply   bool
	Payload []byte
}

// Handler processes inbound messages. Handlers for the same sender run
// sequentially in send order; handlers for different senders run
// concurrently — exactly the behaviour of one goroutine per TCP connection.
type Handler func(m Message)

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// ID returns the node identifier this endpoint is registered under.
	ID() string
	// Send delivers m to m.To asynchronously, reliably, and in order
	// with respect to other Sends to the same destination. Sending to a
	// closed or crashed peer fails at once with a NeverLeft error.
	Send(m Message) error
	// Call sends m and blocks for the matching reply, the call deadline
	// (ErrTimeout), or the peer closing with the call in flight
	// (ErrPeerClosed, not NeverLeft).
	Call(m Message) (Message, error)
	// Reply responds to a received request.
	Reply(req Message, m Message) error
	// SetHandler installs the inbound message handler; it must be called
	// before messages arrive.
	SetHandler(h Handler)
	// Close detaches the endpoint: in-flight messages to it are dropped,
	// and peers' sends and in-flight calls to it fail promptly.
	Close() error
}

// Errors returned by transports. They fall into two classes, told apart by
// NeverLeft. Definite: the message was never handed to the network (unknown
// node, own or peer endpoint closed at Send, dial refused, link overloaded,
// frame too large), so the receiver cannot have acted on it. Indefinite —
// everything else (ErrTimeout, ErrPeerClosed or ErrClosed while a Call was in
// flight, a broken TCP write): the message may have been delivered and acted on.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrTimeout     = errors.New("transport: call timed out")
	// ErrPeerClosed is connection refused (at Send) or connection reset
	// (a Call in flight) from a destination that has closed or crashed.
	ErrPeerClosed = errors.New("transport: peer closed")

	errNotSent       = errors.New("transport: not sent")
	errTruncated     = errors.New("transport: message truncated")
	errFrameTooLarge = errors.New("transport: frame too large")
)

// notSent marks err as definite: the message never left this endpoint.
func notSent(err error) error { return fmt.Errorf("%w: %w", errNotSent, err) }

// Preallocated: a node keeps sending protocol traffic to a crashed peer
// (and discards the error), so these are returned per message.
var (
	errSendClosed  = notSent(ErrClosed)
	errSendRefused = notSent(ErrPeerClosed)
)

// NeverLeft reports whether a Send or Call error proves the message was
// never handed to the network, which makes a retry safe even for a request
// that is not idempotent. Any other error leaves the outcome unknown.
func NeverLeft(err error) bool { return errors.Is(err, errNotSent) }

// DefaultCallTimeout bounds Call when no deadline is configured.
const DefaultCallTimeout = 5 * time.Second

// calls is an endpoint's table of Calls awaiting their replies: register,
// wait, reset and unregister for both endpoint types.
type calls struct {
	timeout atomic.Int64  // nanoseconds; 0 = DefaultCallTimeout
	done    chan struct{} // closed when the endpoint closes; unblocks waits

	mu      sync.Mutex
	pending map[uint64]*callSlot
}

// callSlot is where one Call waits. Slots are recycled through slotPool; a
// pooled slot has an empty channel and a stopped timer (see calls.release).
type callSlot struct {
	ch    chan Message // one slot: the reply, or the zero Message for a reset
	timer *time.Timer  // the call deadline
	to    string
}

var slotPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &callSlot{ch: make(chan Message, 1), timer: t}
}}

func newCalls() calls {
	return calls{done: make(chan struct{}), pending: make(map[uint64]*callSlot)}
}

// call sends m from e under the given id and blocks for the matching reply,
// the deadline, the peer's reset, or e closing.
//
//spinnaker:hotpath
func (c *calls) call(e Endpoint, id uint64, m Message) (Message, error) {
	m.ID = id
	timeout := time.Duration(c.timeout.Load())
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	s := slotPool.Get().(*callSlot)
	s.to = m.To
	s.timer.Reset(timeout)
	c.mu.Lock()
	c.pending[id] = s
	c.mu.Unlock()
	if err := e.Send(m); err != nil {
		c.release(id, s)
		return Message{}, err
	}
	var (
		reply Message
		err   error
	)
	select {
	case reply = <-s.ch:
		if !reply.Reply {
			// Connection reset: the peer closed with the call in flight.
			// It may have processed the request, so not NeverLeft.
			err = ErrPeerClosed
		}
	case <-s.timer.C:
		err = ErrTimeout
	case <-c.done:
		// The caller's own endpoint closed (node stopping). Without this
		// arm, every in-flight call into a partition pins its goroutine
		// for the full timeout after teardown — the goroutine-leak
		// sentinel in internal/sim is what catches regressions here.
		err = ErrClosed
	}
	c.release(id, s)
	if err != nil {
		return Message{}, callError(err, e.ID(), m)
	}
	return reply, nil
}

// callError stays un-annotated so the formatting is off the hot path.
func callError(err error, from string, m Message) error {
	return fmt.Errorf("%w: %s → %s kind %d", err, from, m.To, m.Kind)
}

// release unregisters a finished call and recycles its slot if it is quiet.
// deliver and reset send only to a slot they find in pending, under mu, so
// once the entry is gone the channel cannot gain a message: a late reply or
// reset for this call never reaches the slot's next user. A slot holding a
// stray message (a duplicate, or one that raced the deadline), or whose timer
// fired — go.mod selects the buffered timer channel, where a tick may be
// queued or still on its way after Stop — is left to the collector instead.
//
//spinnaker:hotpath
func (c *calls) release(id uint64, s *callSlot) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	if s.timer.Stop() && len(s.ch) == 0 {
		slotPool.Put(s)
	}
}

// deliver hands a reply to the call waiting for it, if there still is one.
// The send does not block: a duplicated reply (fault plane) or one racing
// the call's timeout must not wedge the link's delivery goroutine or the
// connection's reader on the full one-slot buffer.
//
//spinnaker:hotpath
func (c *calls) deliver(m Message) {
	c.mu.Lock()
	if s, ok := c.pending[m.ID]; ok {
		select {
		case s.ch <- m:
		default:
		}
	}
	c.mu.Unlock()
}

// reset fails the calls in flight to node `to`, which has closed or reset
// the connection: each receives the zero Message (a genuine reply has Reply
// set) unless its reply is already in the slot.
func (c *calls) reset(to string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []uint64
	for id, s := range c.pending {
		if s.to == to {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids) // wake callers in call order, not map order (seed replay)
	for _, id := range ids {
		select {
		case c.pending[id].ch <- Message{}:
		default:
		}
	}
}

// dispatch routes an inbound message to its pending call or to the handler.
func (c *calls) dispatch(m Message, handler *atomic.Value) {
	if m.Reply {
		c.deliver(m)
	} else if h, ok := handler.Load().(Handler); ok && h != nil {
		h(m)
	}
}

// asReply addresses m as the reply to req.
func asReply(req, m Message) Message {
	m.To, m.ID, m.Reply = req.From, req.ID, true
	return m
}

// EncodeMessage serializes m with length framing, in one exact-size buffer.
func EncodeMessage(m Message) []byte {
	buf := make([]byte, 4+bodySize(m))
	putFrame(buf, &m)
	return buf
}

// bodySize is the length of m's frame after its 4-byte length prefix.
func bodySize(m Message) int { return 2 + len(m.From) + 2 + len(m.To) + 18 + len(m.Payload) }

// putFrame writes m's frame into buf, 4+bodySize(m) long, setting every byte.
// It is the one frame writer, for EncodeMessage and TCPEndpoint.Send.
//
//spinnaker:hotpath
func putFrame(buf []byte, m *Message) {
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(m.From)))
	off := 6 + copy(buf[6:], m.From)
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(m.To)))
	off += 2 + copy(buf[off+2:], m.To)
	buf[off] = m.Kind
	binary.LittleEndian.PutUint32(buf[off+1:], m.Cohort)
	binary.LittleEndian.PutUint64(buf[off+5:], m.ID)
	buf[off+13] = 0
	if m.Reply {
		buf[off+13] = 1
	}
	binary.LittleEndian.PutUint32(buf[off+14:], uint32(len(m.Payload)))
	copy(buf[off+18:], m.Payload)
}

// DecodeMessage parses a message body (after the 4-byte length frame).
// Nothing in the result aliases b.
func DecodeMessage(b []byte) (Message, error) { return decodeMessage(b, "", "", false) }

// decodeMessage is DecodeMessage for a connection's reader, which knows who
// it is and, after the first frame, who the peer is: a From or To matching
// the given string reuses it, and with own set the payload aliases b.
func decodeMessage(b []byte, from, to string, own bool) (Message, error) {
	var (
		m  Message
		ok bool
	)
	if m.From, b, ok = takeString(b, from); ok {
		m.To, b, ok = takeString(b, to)
	}
	if !ok || len(b) < 1+4+8+1+4 {
		return m, errTruncated
	}
	m.Kind = b[0]
	m.Cohort = binary.LittleEndian.Uint32(b[1:])
	m.ID = binary.LittleEndian.Uint64(b[5:])
	m.Reply = b[13] == 1
	n := int(binary.LittleEndian.Uint32(b[14:]))
	if b = b[18:]; len(b) < n {
		return m, errTruncated
	}
	if n > 0 {
		if m.Payload = b[:n:n]; !own {
			m.Payload = append([]byte(nil), m.Payload...)
		}
	}
	return m, nil
}

// takeString reads a u16-length-prefixed string off the head of b and
// returns it with the rest of b; known is returned when the bytes equal it.
func takeString(b []byte, known string) (string, []byte, bool) {
	if len(b) < 2 {
		return "", b, false
	}
	n, b := int(binary.LittleEndian.Uint16(b)), b[2:]
	if len(b) < n {
		return "", b, false
	}
	if string(b[:n]) != known {
		known = string(b[:n])
	}
	return known, b[n:], true
}
