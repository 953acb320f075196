package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

func batchRecsFor(cohort, epoch uint32, startSeq uint64, payloads ...string) []Record {
	recs := make([]Record, len(payloads))
	for i, p := range payloads {
		recs[i] = Record{Cohort: cohort, Type: RecWrite, LSN: MakeLSN(epoch, startSeq+uint64(i)), Payload: []byte(p)}
	}
	return recs
}

func TestGroupFrameRoundTrip(t *testing.T) {
	recs := batchRecsFor(7, 1, 1, "one", "two", "", "four")
	buf := EncodeGroup(nil, recs)
	if len(buf) != GroupEncodedSize(recs) {
		t.Fatalf("GroupEncodedSize = %d, EncodeGroup produced %d", GroupEncodedSize(recs), len(buf))
	}
	var got []Record
	n, err := DecodeFrame(buf, func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Cohort != recs[i].Cohort || got[i].Type != recs[i].Type ||
			got[i].LSN != recs[i].LSN || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Errorf("rec %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestGroupFrameCorruptionDetected(t *testing.T) {
	buf := EncodeGroup(nil, batchRecsFor(1, 1, 1, "aaaa", "bbbb"))
	for _, flip := range []int{0, 5, recHeaderSize, recHeaderSize + 3, len(buf) - 1} {
		mut := append([]byte(nil), buf...)
		mut[flip] ^= 0x40
		if _, err := DecodeFrame(mut, func(Record) error { return nil }); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("flip at %d: err = %v, want ErrCorruptRecord", flip, err)
		}
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeFrame(buf[:cut], func(Record) error { return nil }); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("cut at %d: err = %v, want ErrCorruptRecord", cut, err)
		}
	}
}

// TestDecodeFrameRejectsNonGroupFirstByte pins the one-format rule: a frame
// that is well-formed and CRC-clean but whose first body byte is not the
// group marker — the retired single-record framing put a RecType there — is
// corrupt, not a record.
func TestDecodeFrameRejectsNonGroupFirstByte(t *testing.T) {
	body := make([]byte, 1+4+8, 1+4+8+1)
	body[0] = byte(RecWrite)
	binary.LittleEndian.PutUint32(body[1:5], 3)
	binary.LittleEndian.PutUint64(body[5:13], uint64(MakeLSN(1, 1)))
	body = append(body, 'x')
	frame := make([]byte, recHeaderSize, recHeaderSize+len(body))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(body, crcTable))
	frame = append(frame, body...)
	called := false
	if _, err := DecodeFrame(frame, func(Record) error { called = true; return nil }); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("DecodeFrame on a single-record frame: err = %v, want ErrCorruptRecord", err)
	}
	if called {
		t.Fatal("DecodeFrame yielded a record from a non-group frame")
	}
}

// TestLogMixedFramingReplay interleaves Append (groups of one) with
// AppendBatch (groups of several) and checks one reopen+scan replays every
// record in append order.
func TestLogMixedFramingReplay(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	if err := l.AppendForce(writeRec(0, 1, 1, "solo1")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(batchRecsFor(0, 1, 2, "g1", "g2", "g3")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendForce(writeRec(0, 1, 5, "solo2")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(batchRecsFor(1, 1, 1, "other-cohort")); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}

	l2 := newTestLog(t, store, 0)
	var got []Record
	if err := l2.Scan(func(rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		cohort  uint32
		seq     uint64
		payload string
	}{
		{0, 1, "solo1"}, {0, 2, "g1"}, {0, 3, "g2"}, {0, 4, "g3"}, {0, 5, "solo2"}, {1, 1, "other-cohort"},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Cohort != w.cohort || got[i].LSN != MakeLSN(1, w.seq) || string(got[i].Payload) != w.payload {
			t.Errorf("rec %d = cohort %d %s %q, want cohort %d 1.%d %q",
				i, got[i].Cohort, got[i].LSN, got[i].Payload, w.cohort, w.seq, w.payload)
		}
	}
}

// TestLogTornGroupFrameTruncated drops a partially-written group frame at
// the tail on reopen — truncation, not a fatal error — because the group's
// single CRC cannot vouch for any prefix of the batch.
func TestLogTornGroupFrameTruncated(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	if err := l.AppendForce(writeRec(0, 1, 1, "durable")); err != nil {
		t.Fatal(err)
	}
	// Half a group frame forced to the device: a crash mid-append whose
	// leading bytes reached the medium.
	torn := EncodeGroup(nil, batchRecsFor(0, 1, 2, "lost-a", "lost-b"))
	ids, _ := store.List()
	dev, _ := store.Open(ids[len(ids)-1])
	if _, err := dev.Append(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := dev.Force(); err != nil {
		t.Fatal(err)
	}

	l2 := newTestLog(t, store, 0)
	var lsns []LSN
	if err := l2.Scan(func(rec Record) error {
		lsns = append(lsns, rec.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 1 || lsns[0] != MakeLSN(1, 1) {
		t.Fatalf("after torn group frame got %v, want just 1.1", lsns)
	}
	// The reopened log must still accept batch appends after the torn tail.
	if _, err := l2.AppendBatch(batchRecsFor(0, 1, 2, "retry-a", "retry-b")); err != nil {
		t.Fatalf("append after torn group frame: %v", err)
	}
}

// TestGroupFrameCohortWritesInMatchesPerRecord appends the same records to
// two logs — one per-record, one group-framed — and checks CohortWritesIn
// (the catch-up read path) returns byte-identical results from both.
func TestGroupFrameCohortWritesInMatchesPerRecord(t *testing.T) {
	recs := batchRecsFor(3, 1, 1, "r1", "r2", "r3", "r4", "r5")

	perRec := newTestLog(t, NewMemSegmentStore(DeviceInstant), 0)
	for _, r := range recs {
		if err := perRec.AppendForce(r); err != nil {
			t.Fatal(err)
		}
	}
	grouped := newTestLog(t, NewMemSegmentStore(DeviceInstant), 0)
	if _, err := grouped.AppendBatch(recs[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := grouped.AppendBatch(recs[3:]); err != nil {
		t.Fatal(err)
	}
	if err := grouped.Force(); err != nil {
		t.Fatal(err)
	}

	after, through := MakeLSN(1, 1), MakeLSN(1, 5)
	a, okA, err := perRec.CohortWritesIn(3, after, through)
	if err != nil || !okA {
		t.Fatalf("per-record CohortWritesIn: ok=%v err=%v", okA, err)
	}
	b, okB, err := grouped.CohortWritesIn(3, after, through)
	if err != nil || !okB {
		t.Fatalf("grouped CohortWritesIn: ok=%v err=%v", okB, err)
	}
	if len(a) != len(b) {
		t.Fatalf("per-record returned %d records, grouped %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cohort != b[i].Cohort || a[i].Type != b[i].Type || a[i].LSN != b[i].LSN ||
			!bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Errorf("rec %d: per-record %+v != grouped %+v", i, a[i], b[i])
		}
	}
}

// TestAppendBatchSingleAndEmpty pins AppendBatch's degenerate cases: a
// one-record batch writes a group frame of one and an empty batch appends
// nothing.
func TestAppendBatchSingleAndEmpty(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	end0, err := l.AppendBatch(nil)
	if err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
	if end0 != 0 {
		t.Fatalf("empty AppendBatch end = %d, want 0", end0)
	}
	rec := writeRec(0, 1, 1, "solo")
	if _, err := l.AppendBatch([]Record{rec}); err != nil {
		t.Fatal(err)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// The frame on disk must decode as one group frame carrying the record.
	ids, _ := store.List()
	dev, _ := store.Open(ids[len(ids)-1])
	buf := make([]byte, dev.Size())
	if _, err := dev.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	got, n, err := decodeOne(buf)
	if err != nil {
		t.Fatalf("DecodeFrame on single-record AppendBatch frame: %v", err)
	}
	if n != len(buf) || got.LSN != rec.LSN || string(got.Payload) != "solo" {
		t.Fatalf("decoded %+v (%d bytes), want %+v (%d bytes)", got, n, rec, len(buf))
	}
}

// TestAppendBatchStats pins that the append counter counts records, not
// frames, so the ablation accounting stays comparable across framings.
func TestAppendBatchStats(t *testing.T) {
	l := newTestLog(t, NewMemSegmentStore(DeviceInstant), 0)
	if _, err := l.AppendBatch(batchRecsFor(0, 1, 1, "a", "b", "c")); err != nil {
		t.Fatal(err)
	}
	appends, _ := l.Stats()
	if appends != 3 {
		t.Fatalf("appends = %d, want 3", appends)
	}
}
