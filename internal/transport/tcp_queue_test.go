package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPSendBackPressure: against a peer that accepts the connection and
// never reads, 8 senders offer 64 MiB. Once the kernel's buffers fill, the
// write in progress blocks and the senders wait behind it: not every Send
// returns, and the connection's queue stays under maxSpare plus one frame
// instead of growing by what they offer. Close releases them all.
func TestTCPSendBackPressure(t *testing.T) {
	const senders, frames = 8, 512
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	held := make(chan net.Conn, 1)
	go func() {
		if c, err := sink.Accept(); err == nil {
			held <- c // kept open, never read
		}
	}()
	e, err := ListenTCP("a", map[string]string{"a": "127.0.0.1:0", "sink": sink.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	m := Message{To: "sink", Payload: make([]byte, 16<<10)}
	var (
		sent atomic.Int64
		wg   sync.WaitGroup
	)
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range frames {
				if e.Send(m) != nil {
					return
				}
				sent.Add(1)
			}
		}()
	}
	// The senders have stalled once no Send returns for 200 ms.
	deadline := time.Now().Add(20 * time.Second)
	for last := int64(-1); sent.Load() != last; {
		if last = sent.Load(); last == senders*frames || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if n := sent.Load(); n == senders*frames {
		t.Errorf("all %d sends returned with the peer not reading", n)
	}
	e.mu.Lock()
	tc := e.conns["sink"]
	e.mu.Unlock()
	tc.mu.Lock()
	queued := len(tc.buf)
	tc.mu.Unlock()
	if limit := maxSpare + 4 + bodySize(Message{From: "a", To: "sink", Payload: m.Payload}); queued > limit {
		t.Errorf("%d bytes queued on the connection, want ≤ %d", queued, limit)
	}
	e.Close()
	wg.Wait()
	select {
	case c := <-held:
		c.Close()
	default:
	}
}

// TestTCPWriterWritesAtMostTwice: while 8 senders keep one connection busy,
// a sender that becomes the writer writes its own frame alone, then at most
// one batch of what queued meanwhile, and stops. So no two writes of several
// frames each ever follow one another: the writer's time is bounded, which
// matters when it is a connection's reader replying from its handler.
func TestTCPWriterWritesAtMostTwice(t *testing.T) {
	w := &countingConn{}
	tc := &tcpConn{c: w}
	tc.idle.L = &tc.mu
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if err := tc.send(Message{From: "a", To: "b", Payload: make([]byte, 100)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	total, batched := 0, 0
	for i, n := range w.frames {
		total += n
		if n > 1 {
			batched++
			if i > 0 && w.frames[i-1] > 1 {
				t.Fatalf("writes %d and %d carried %d and %d frames: one writer wrote three times", i-1, i, w.frames[i-1], n)
			}
		}
	}
	if total != 8*200 || batched == 0 {
		t.Errorf("%d frames in %d writes, %d of them batched; want 1600, some batched", total, len(w.frames), batched)
	}
}

// countingConn is a net.Conn whose Write takes a little time and records how
// many frames each write carried.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	frames []int
}

func (c *countingConn) Write(b []byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	n := 0
	for off := 0; off < len(b); off += 4 + int(binary.LittleEndian.Uint32(b[off:])) {
		n++
	}
	c.mu.Lock()
	c.frames = append(c.frames, n)
	c.mu.Unlock()
	return len(b), nil
}
