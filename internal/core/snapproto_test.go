package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"spinnaker/internal/wal"
)

func TestSnapManifestRoundTrip(t *testing.T) {
	man := snapManifest{
		Status:  StatusOK,
		Cmt:     wal.MakeLSN(3, 77),
		SnapCmt: wal.MakeLSN(3, 70),
		Present: []wal.LSN{wal.MakeLSN(3, 71), wal.MakeLSN(3, 75)},
		Tables: []snapTableMeta{
			{ID: 9, Size: 4096, CRC: 0xDEADBEEF},
			{ID: 12, Size: 128, CRC: 7},
		},
	}
	got, err := decodeSnapManifest(encodeSnapManifest(man))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Fatalf("round trip mangled manifest:\n got %+v\nwant %+v", got, man)
	}
}

// A forged element count in a snapshot manifest must be rejected before any
// allocation is sized by it (the decodeManifest hardening, applied to the
// bulk catch-up codecs).
func TestSnapManifestRejectsForgedCounts(t *testing.T) {
	base := encodeSnapManifest(snapManifest{Status: StatusOK})
	// Layout with everything empty: status 1 + cmt 8 + snapCmt 8, then the
	// present and table counts.
	for _, tt := range []struct {
		name string
		off  int
	}{
		{"present", 17},
		{"tables", 21},
	} {
		b := append([]byte(nil), base...)
		binary.LittleEndian.PutUint32(b[tt.off:], 1<<30)
		if _, err := decodeSnapManifest(b); err == nil {
			t.Errorf("%s count forged to 1<<30 decoded without error", tt.name)
		}
	}
	// Each offered table is 16 bytes (id, size, CRC): a count one past
	// the tables present, or a payload cut inside the last table, is
	// refused.
	two := encodeSnapManifest(snapManifest{Status: StatusOK, Tables: []snapTableMeta{{ID: 1}, {ID: 2}}})
	if len(two) != 21+4+2*16 {
		t.Fatalf("two-table manifest is %d bytes, want %d", len(two), 21+4+2*16)
	}
	forged := append([]byte(nil), two...)
	binary.LittleEndian.PutUint32(forged[21:], 3)
	if _, err := decodeSnapManifest(forged); err == nil {
		t.Error("table count forged one past the payload decoded without error")
	}
	if _, err := decodeSnapManifest(two[:len(two)-1]); err == nil {
		t.Error("manifest cut inside its last table decoded without error")
	}
}

func TestTableChunkCodecs(t *testing.T) {
	req := tableChunkReq{Table: 42, Offset: 512}
	gotReq, err := decodeTableChunkReq(encodeTableChunkReq(req))
	if err != nil || gotReq != req {
		t.Fatalf("chunk req round trip = %+v, %v", gotReq, err)
	}

	ch := tableChunk{Status: StatusOK, Table: 42, Offset: 512, Total: 4096,
		CRC: 99, Data: []byte("abc")}
	gotCh, err := decodeTableChunk(encodeTableChunk(ch))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCh, ch) {
		t.Fatalf("chunk round trip = %+v, want %+v", gotCh, ch)
	}

	// A forged data length must be rejected, not allocated or sliced.
	b := encodeTableChunk(ch)
	binary.LittleEndian.PutUint32(b[21:25], 1<<30)
	if _, err := decodeTableChunk(b); err == nil {
		t.Error("data length forged to 1<<30 decoded without error")
	}
}

func TestCatchupRespRejectsForgedCount(t *testing.T) {
	b := encodeCatchupResp(catchupResp{Status: StatusOK, Cmt: wal.MakeLSN(1, 5)})
	binary.LittleEndian.PutUint32(b[13:], 1<<30) // entry count: status 1 + cmt 8 + present count 4
	if _, err := decodeCatchupResp(b); err == nil {
		t.Error("catchup resp entry count forged to 1<<30 decoded without error")
	}
}

func TestRowRespRejectsForgedCount(t *testing.T) {
	b := encodeRowResp(rowResp{Status: StatusOK})
	binary.LittleEndian.PutUint32(b[1:], 1<<30)
	if _, err := decodeRowResp(b); err == nil {
		t.Error("row resp entry count forged to 1<<30 decoded without error")
	}
}

func TestProposeBatchRejectsForgedCount(t *testing.T) {
	b := encodeProposeBatch(nil, nil)
	binary.LittleEndian.PutUint32(b, 1<<30)
	if _, err := decodeProposeBatch(b, nil); err == nil {
		t.Error("propose batch record count forged to 1<<30 decoded without error")
	}
}

func TestCatchupReqNoSnapFlag(t *testing.T) {
	for _, want := range []catchupReq{
		{Cmt: wal.MakeLSN(1, 5), NoSnap: true},
		{Cmt: wal.MakeLSN(1, 3)},
		{SplitPull: true, FilterLow: "100", FilterHigh: "200", NoSnap: true},
	} {
		got, err := decodeCatchupReq(encodeCatchupReq(want))
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmt != want.Cmt || got.NoSnap != want.NoSnap || got.SplitPull != want.SplitPull ||
			got.FilterLow != want.FilterLow || got.FilterHigh != want.FilterHigh {
			t.Fatalf("catchup req round trip = %+v, want %+v", got, want)
		}
		// The trailing flags byte is required: a request cut short of it
		// is refused, not read as NoSnap off.
		enc := encodeCatchupReq(want)
		if got, err := decodeCatchupReq(enc[:len(enc)-1]); err == nil {
			t.Errorf("catchup req without its flags byte decoded as %+v", got)
		}
	}
}
