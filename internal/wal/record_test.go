package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// decodeOne decodes a frame that must carry exactly one record.
func decodeOne(b []byte) (Record, int, error) {
	var got []Record
	n, err := DecodeFrame(b, func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		return Record{}, n, err
	}
	if len(got) != 1 {
		return Record{}, n, fmt.Errorf("frame carries %d records, want 1", len(got))
	}
	return got[0], n, nil
}

func sameRecord(a, b Record) bool {
	return a.Cohort == b.Cohort && a.Type == b.Type && a.LSN == b.LSN && bytes.Equal(a.Payload, b.Payload)
}

func TestRecordRoundTrip(t *testing.T) {
	rec := Record{Cohort: 7, Type: RecWrite, LSN: MakeLSN(1, 21), Payload: []byte("k=v")}
	buf := EncodeGroup(nil, []Record{rec})
	if want := GroupEncodedSize([]Record{rec}); len(buf) != want {
		t.Fatalf("GroupEncodedSize = %d, EncodeGroup produced %d", want, len(buf))
	}
	got, n, err := decodeOne(buf)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d, want %d", n, len(buf))
	}
	if !sameRecord(got, rec) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, rec)
	}
}

func TestRecordEmptyPayload(t *testing.T) {
	rec := Record{Cohort: 0, Type: RecLastCommitted, LSN: MakeLSN(2, 5)}
	got, _, err := decodeOne(EncodeGroup(nil, []Record{rec}))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v, want empty", got.Payload)
	}
}

// TestRecordDetectsCorruption flips every byte of a one-record frame in turn:
// no single-byte corruption may decode.
func TestRecordDetectsCorruption(t *testing.T) {
	rec := Record{Cohort: 3, Type: RecWrite, LSN: MakeLSN(1, 1), Payload: []byte("payload")}
	buf := EncodeGroup(nil, []Record{rec})
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		if _, _, err := decodeOne(mut); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("flipping byte %d: err = %v, want ErrCorruptRecord", i, err)
		}
	}
}

func TestRecordTruncatedBuffer(t *testing.T) {
	rec := Record{Cohort: 1, Type: RecWrite, LSN: MakeLSN(1, 2), Payload: []byte("abcdef")}
	buf := EncodeGroup(nil, []Record{rec})
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeOne(buf[:cut]); !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("cut at %d: err = %v, want ErrCorruptRecord", cut, err)
		}
	}
}

func TestRecordBackToBack(t *testing.T) {
	r1 := Record{Cohort: 1, Type: RecWrite, LSN: MakeLSN(1, 1), Payload: []byte("one")}
	r2 := Record{Cohort: 2, Type: RecCheckpoint, LSN: MakeLSN(1, 2), Payload: []byte("two")}
	buf := EncodeGroup(EncodeGroup(nil, []Record{r1}), []Record{r2})
	got1, n1, err := decodeOne(buf)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	got2, n2, err := decodeOne(buf[n1:])
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if n1+n2 != len(buf) {
		t.Errorf("consumed %d+%d of %d bytes", n1, n2, len(buf))
	}
	if !sameRecord(got1, r1) || !sameRecord(got2, r2) {
		t.Errorf("decoded %+v, %+v; want %+v, %+v", got1, got2, r1, r2)
	}
}

func TestRecordPropertyRoundTrip(t *testing.T) {
	f := func(cohort uint32, typ uint8, epoch uint16, seq uint64, payload []byte) bool {
		rec := Record{
			Cohort:  cohort,
			Type:    RecType(typ%3 + 1),
			LSN:     MakeLSN(uint32(epoch), seq&MaxSeq),
			Payload: payload,
		}
		got, n, err := decodeOne(EncodeGroup(nil, []Record{rec}))
		return err == nil && n == GroupEncodedSize([]Record{rec}) && sameRecord(got, rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRecTypeString(t *testing.T) {
	for typ, want := range map[RecType]string{
		RecWrite: "write", RecLastCommitted: "lastCommitted",
		RecCheckpoint: "checkpoint", RecType(99): "RecType(99)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}
