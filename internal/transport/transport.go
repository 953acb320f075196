// Package transport provides the reliable, in-order messaging layer that
// Spinnaker's replication protocol is built on. The paper (Appendix A.1)
// notes that Spinnaker "uses reliable in-order messages based on TCP
// sockets to simplify its replication protocol" — in contrast to basic
// Multi-Paxos, which assumes an unreliable message layer.
//
// Two implementations are provided: a simulated in-process network (used
// by the test suite and by the benchmark harness to reproduce the paper's
// cluster on one box) and a real TCP transport used by cmd/spinnaker-server.
// Both guarantee in-order delivery per sender → receiver link, like a TCP
// connection.
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
// node, own or peer endpoint closed at Send, dial refused, link overloaded),
// so the receiver cannot have acted on it. Indefinite — everything else
// (ErrTimeout, ErrPeerClosed or ErrClosed while a Call was in flight, a
// broken TCP write): the message may have been delivered and processed.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrTimeout     = errors.New("transport: call timed out")
	// ErrPeerClosed is connection refused (at Send) or connection reset
	// (a Call in flight) from a destination that has closed or crashed.
	ErrPeerClosed = errors.New("transport: peer closed")

	errNotSent = errors.New("transport: not sent")
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

// pendingCall is a Call awaiting its reply, and where it was sent.
type pendingCall struct {
	ch chan Message // one slot: the reply, or the zero Message for a reset
	to string
}

// resetCalls fails the calls in pending that are in flight to node `to`,
// which has closed or reset the connection: each receives the zero Message
// (a genuine reply has Reply set) unless its reply is already in the slot.
// Callers hold the lock that guards pending.
func resetCalls(pending map[uint64]pendingCall, to string) {
	var ids []uint64
	for id, pc := range pending {
		if pc.to == to {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids) // wake callers in call order, not map order (seed replay)
	for _, id := range ids {
		select {
		case pending[id].ch <- Message{}:
		default:
		}
	}
}

// EncodeMessage serializes m with length framing for the TCP transport.
func EncodeMessage(m Message) []byte {
	size := 2 + len(m.From) + 2 + len(m.To) + 1 + 4 + 8 + 1 + 4 + len(m.Payload)
	buf := make([]byte, 4, 4+size)
	binary.LittleEndian.PutUint32(buf[:4], uint32(size))
	var scratch [8]byte
	putStr := func(s string) {
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(s)))
		buf = append(buf, scratch[:2]...)
		buf = append(buf, s...)
	}
	putStr(m.From)
	putStr(m.To)
	buf = append(buf, m.Kind)
	binary.LittleEndian.PutUint32(scratch[:4], m.Cohort)
	buf = append(buf, scratch[:4]...)
	binary.LittleEndian.PutUint64(scratch[:8], m.ID)
	buf = append(buf, scratch[:8]...)
	if m.Reply {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(m.Payload)))
	buf = append(buf, scratch[:4]...)
	buf = append(buf, m.Payload...)
	return buf
}

// DecodeMessage parses a message body (after the 4-byte length frame).
func DecodeMessage(b []byte) (Message, error) {
	var m Message
	off := 0
	need := func(n int) error {
		if len(b)-off < n {
			return fmt.Errorf("transport: message truncated at %d", off)
		}
		return nil
	}
	str := func() (string, error) {
		if err := need(2); err != nil {
			return "", err
		}
		n := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if err := need(n); err != nil {
			return "", err
		}
		s := string(b[off : off+n])
		off += n
		return s, nil
	}
	var err error
	if m.From, err = str(); err != nil {
		return m, err
	}
	if m.To, err = str(); err != nil {
		return m, err
	}
	if err := need(1 + 4 + 8 + 1 + 4); err != nil {
		return m, err
	}
	m.Kind = b[off]
	off++
	m.Cohort = binary.LittleEndian.Uint32(b[off:])
	off += 4
	m.ID = binary.LittleEndian.Uint64(b[off:])
	off += 8
	m.Reply = b[off] == 1
	off++
	n := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if err := need(n); err != nil {
		return m, err
	}
	if n > 0 {
		m.Payload = append([]byte(nil), b[off:off+n]...)
	}
	return m, nil
}
