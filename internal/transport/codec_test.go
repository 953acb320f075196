package transport

import (
	"reflect"
	"testing"
)

// FuzzDecodeMessage: the frame decoder is total on arbitrary bytes, the
// strings a connection's reader offers for reuse never change what is
// decoded, and whatever it admits re-encodes to a frame that decodes to the
// same message.
func FuzzDecodeMessage(f *testing.F) {
	frame := EncodeMessage(Message{From: "n0", To: "n1", Kind: 3, Cohort: 7, ID: 42, Reply: true, Payload: []byte("payload")})[4:]
	f.Add(frame, "n0", "n1")
	f.Add(frame, "n1", "n0")                // hints that do not match
	f.Add(frame[:len(frame)-3], "n0", "n1") // payload cut short
	f.Add([]byte{0xff, 0xff, 'x'}, "", "")  // a string length past the frame
	f.Fuzz(func(t *testing.T, b []byte, from, to string) {
		plain, err := DecodeMessage(b)
		hinted, herr := decodeMessage(b, from, to)
		if (err == nil) != (herr == nil) || !reflect.DeepEqual(plain, hinted) {
			t.Fatalf("hints (%q, %q) changed the decode: %+v, %v; without %+v, %v", from, to, hinted, herr, plain, err)
		}
		if err != nil {
			return
		}
		again, err := DecodeMessage(EncodeMessage(plain)[4:])
		if err != nil || !reflect.DeepEqual(plain, again) {
			t.Fatalf("re-encoded frame decodes to %+v, %v; want %+v", again, err, plain)
		}
	})
}

// TestDecodeMessageAllocs: on an established connection the reader knows
// both ends, so a frame costs its payload copy and nothing for From and To.
func TestDecodeMessageAllocs(t *testing.T) {
	from, to := "node-with-a-long-name-0", "node-with-a-long-name-1"
	frame := EncodeMessage(Message{From: from, To: to, ID: 1, Payload: []byte("payload")})[4:]
	var (
		m   Message
		err error
	)
	if n := testing.AllocsPerRun(200, func() { m, err = decodeMessage(frame, from, to) }); n != 1 || err != nil || m.From != from || m.To != to {
		t.Errorf("known peer: %v allocs/frame (want 1: the payload), %+v, %v", n, m, err)
	}
	if n := testing.AllocsPerRun(200, func() { m, err = DecodeMessage(frame) }); n != 3 || err != nil || m.From != from || m.To != to {
		t.Errorf("unknown peer: %v allocs/frame (want 3), %+v, %v", n, m, err)
	}
}
