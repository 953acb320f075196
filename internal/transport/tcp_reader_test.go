package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"unsafe"
)

// scriptConn feeds a TCP reader a byte stream in scripted reads: each Read
// returns the head of the next piece (as much as the reader's buffer takes),
// and after the last piece the conn reports io.EOF, with the last piece's
// bytes when eofWithLast is set. It records every buffer a Read was given:
// the free end of a reader's chunk.
type scriptConn struct {
	net.Conn    // nil: the reader calls only Read and Close
	pieces      [][]byte
	eofWithLast bool
	filled      [][]byte
}

var errEmptyRead = errors.New("reader asked for a read into an empty buffer")

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.pieces) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, errEmptyRead // a real socket would return (0, nil) forever
	}
	n := copy(p, c.pieces[0])
	c.filled = append(c.filled, p)
	if c.pieces[0] = c.pieces[0][n:]; len(c.pieces[0]) == 0 {
		c.pieces = c.pieces[1:]
	}
	if len(c.pieces) == 0 && c.eofWithLast {
		return n, io.EOF
	}
	return n, nil
}

func (c *scriptConn) Close() error { return nil }

// chunks returns how many chunks the reader read into.
func (c *scriptConn) chunks() int {
	ends := make(map[*byte]bool)
	for _, p := range c.filled {
		ends[&p[len(p)-1]] = true // every read fills its chunk's free end
	}
	return len(ends)
}

// frameHeader is the length of a frame from x to b ahead of its payload.
const frameHeader = 4 + 2 + 1 + 2 + 1 + 18

// testPayload is payload i of n bytes; every byte depends on i and its
// offset.
func testPayload(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*29 + j*7 + 1)
	}
	return p
}

// requestStream encodes one request frame from x to b per size, payload i
// of sizes[i] bytes, with ID i.
func requestStream(sizes []int) []byte {
	var out []byte
	for i, n := range sizes {
		out = append(out, requestFrame(i, n)...)
	}
	return out
}

func requestFrame(i, n int) []byte {
	return EncodeMessage(Message{From: "x", To: "b", ID: uint64(i), Payload: testPayload(i, n)})
}

// replyFrame is a reply from x, for no call, with an n-byte payload.
func replyFrame(n int) []byte {
	return EncodeMessage(Message{From: "x", To: "b", ID: 1 << 40, Reply: true, Payload: testPayload(-1, n)})
}

// splitEvery cuts b into pieces of n bytes (the last may be shorter).
func splitEvery(b []byte, n int) [][]byte {
	var out [][]byte
	for len(b) > n {
		out, b = append(out, b[:n]), b[n:]
	}
	return append(out, b)
}

// runReader runs an accepted connection's reader over conn until it
// returns and gives back the requests its handler received, kept as
// delivered.
func runReader(conn *scriptConn) []Message {
	e := &TCPEndpoint{id: "b", accepted: map[net.Conn]struct{}{conn: {}}, calls: newCalls()}
	var got []Message
	e.SetHandler(func(m Message) { got = append(got, m) })
	e.readLoop(conn)
	return got
}

// checkRequests reports any request missing, out of order or whose payload
// differs from what requestStream(sizes) sent.
func checkRequests(t *testing.T, got []Message, sizes []int) {
	t.Helper()
	if len(got) != len(sizes) {
		t.Fatalf("handler got %d requests, want %d", len(got), len(sizes))
	}
	for i, m := range got {
		if m.ID != uint64(i) || m.From != "x" || m.To != "b" {
			t.Fatalf("request %d: ID %d from %q to %q", i, m.ID, m.From, m.To)
		}
		if want := testPayload(i, sizes[i]); !bytes.Equal(m.Payload, want) {
			t.Fatalf("request %d: %d-byte payload differs from the %d bytes sent", i, len(m.Payload), len(want))
		}
		if cap(m.Payload) != len(m.Payload) {
			t.Fatalf("request %d: payload cap %d, len %d: an append would write into the chunk", i, cap(m.Payload), len(m.Payload))
		}
	}
}

// TestTCPReaderFramesStraddleChunkEnd: a frame whose header, or whose body,
// crosses the end of the reader's chunk moves, with the bytes already read,
// to a new chunk and arrives whole. Reads of 777 bytes cut frames anywhere.
func TestTCPReaderFramesStraddleChunkEnd(t *testing.T) {
	body := make([]int, 70) // 1 028-byte frames: the 64th runs from byte 64 764 to 65 792
	for i := range body {
		body[i] = 1000
	}
	for _, tc := range []struct {
		name  string
		sizes []int
	}{
		// The first frame ends 2 bytes before the chunk does: the next
		// frame's length prefix is split.
		{"header", []int{readBufSize - 2 - frameHeader, 10, 10}},
		{"body", body},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runReader(&scriptConn{pieces: splitEvery(requestStream(tc.sizes), 777)})
			checkRequests(t, got, tc.sizes)
		})
	}
}

// TestTCPReaderFrameFillsChunkTail: a frame exactly as long as the chunk's
// remaining space is read into that chunk, right behind its predecessor,
// although the first read ends inside it, and the next frame starts a new
// chunk.
func TestTCPReaderFrameFillsChunkTail(t *testing.T) {
	sizes := []int{readBufSize - 128 - frameHeader, 128 - frameHeader, 10}
	got := runReader(&scriptConn{pieces: splitEvery(requestStream(sizes), readBufSize-64)})
	checkRequests(t, got, sizes)
	p0, p1 := got[0].Payload, got[1].Payload
	if want := unsafe.Add(unsafe.Pointer(&p0[len(p0)-1]), 1+frameHeader); unsafe.Pointer(&p1[0]) != want {
		t.Errorf("the frame that fills the chunk's tail was moved to another chunk")
	}
}

// TestTCPReaderFrameLargerThanChunk: a frame over readBufSize gets a chunk
// of its own size, between small frames in ordinary chunks.
func TestTCPReaderFrameLargerThanChunk(t *testing.T) {
	sizes := []int{10, 200 << 10, 10, 3*readBufSize + 1, 0, 10}
	got := runReader(&scriptConn{pieces: splitEvery(requestStream(sizes), 4096)})
	checkRequests(t, got, sizes)
}

// TestTCPReaderFramesWithEOF: complete frames that arrive in the same read
// as the end of the stream are dispatched before the reader stops.
func TestTCPReaderFramesWithEOF(t *testing.T) {
	sizes := []int{5, 0, 300, 7, 12}
	got := runReader(&scriptConn{pieces: [][]byte{requestStream(sizes)}, eofWithLast: true})
	checkRequests(t, got, sizes)
}

// TestTCPReaderKeptPayloadsSurvive: a handler keeps every request payload
// while the reader fills more than three chunks in reads of random sizes,
// with replies and empty requests, whose space the reader reuses, between
// them. At the end each kept payload still holds the bytes sent, so no byte
// was written again once it was handed out.
func TestTCPReaderKeptPayloadsSurvive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := make([]int, 400)
	var stream []byte
	for i := range sizes {
		if sizes[i] = rng.Intn(2000); i%10 == 3 {
			sizes[i] = 0
		}
		stream = append(stream, requestFrame(i, sizes[i])...)
		for rng.Intn(3) == 0 {
			stream = append(stream, replyFrame(rng.Intn(3000))...)
		}
	}
	var pieces [][]byte
	for b := stream; len(b) > 0; {
		n := min(len(b), 1+rng.Intn(9000))
		pieces, b = append(pieces, b[:n]), b[n:]
	}
	conn := &scriptConn{pieces: pieces}
	got := runReader(conn)
	checkRequests(t, got, sizes)
	if n := conn.chunks(); n <= 3 {
		t.Fatalf("the reader filled %d chunks, want more than 3", n)
	}
}

// TestTCPReaderReusesReplySpace: replies are copied out, so a connection
// that carries only replies, a megabyte of them, is read into one chunk.
func TestTCPReaderReusesReplySpace(t *testing.T) {
	var stream []byte
	for i := 0; len(stream) < 1<<20; i++ {
		stream = append(stream, replyFrame(i%3000)...)
	}
	conn := &scriptConn{pieces: splitEvery(stream, 5000)}
	if got := runReader(conn); len(got) != 0 {
		t.Fatalf("the handler got %d replies", len(got))
	}
	if n := conn.chunks(); n != 1 {
		t.Errorf("%d bytes of replies filled %d chunks, want 1", len(stream), n)
	}
}

// TestTCPReaderReplyOwnsPayload: a reply's payload is copied out of the
// chunk, so overwriting the chunk after the reader returns leaves the Call's
// result as received, while a request's payload, which aliases its chunk,
// shows the overwrite.
func TestTCPReaderReplyOwnsPayload(t *testing.T) {
	stream := EncodeMessage(Message{From: "x", To: "b", ID: 1, Payload: []byte("request")})
	stream = append(stream, EncodeMessage(Message{From: "x", To: "b", ID: 7, Reply: true, Payload: []byte("reply!")})...)
	conn := &scriptConn{pieces: [][]byte{stream}}
	e := &TCPEndpoint{id: "b", accepted: map[net.Conn]struct{}{conn: {}}, calls: newCalls()}
	slot := &callSlot{ch: make(chan Message, 1)}
	e.calls.pending[7] = slot
	var req Message
	e.SetHandler(func(m Message) { req = m })
	e.readLoop(conn)
	var reply Message
	select {
	case reply = <-slot.ch:
	default:
		t.Fatal("the reply reached no call")
	}
	for _, b := range conn.filled {
		for i := range b {
			b[i] = 0xAA
		}
	}
	if !bytes.Equal(req.Payload, bytes.Repeat([]byte{0xAA}, len("request"))) {
		t.Fatalf("request payload %q: the overwrite missed the chunk", req.Payload)
	}
	if string(reply.Payload) != "reply!" {
		t.Errorf("reply payload %q after the chunk was overwritten, want %q", reply.Payload, "reply!")
	}
}
