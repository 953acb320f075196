package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

func TestAckPayloadRoundTrip(t *testing.T) {
	lsn, floor := wal.MakeLSN(3, 77), wal.MakeLSN(3, 41)
	gotLSN, gotFloor, err := decodeAck(encodeAck(lsn, floor))
	if err != nil || gotLSN != lsn || gotFloor != floor {
		t.Fatalf("decodeAck = %s,%s,%v want %s,%s", gotLSN, gotFloor, err, lsn, floor)
	}
	// A legacy 8-byte payload (LSN only) decodes with a zero floor —
	// conservative: an unknown floor never advances the GC watermark.
	gotLSN, gotFloor, err = decodeAck(encodeLSN(lsn))
	if err != nil || gotLSN != lsn || !gotFloor.IsZero() {
		t.Fatalf("legacy decodeAck = %s,%s,%v", gotLSN, gotFloor, err)
	}
	if _, _, err := decodeAck([]byte{1, 2, 3}); err == nil {
		t.Error("truncated ack accepted")
	}
}

func TestCommitMsgPayloadRoundTrip(t *testing.T) {
	cmt, gc := wal.MakeLSN(2, 900), wal.MakeLSN(2, 850)
	gotCmt, gotGC, err := decodeCommitMsg(encodeCommitMsg(cmt, gc))
	if err != nil || gotCmt != cmt || gotGC != gc {
		t.Fatalf("decodeCommitMsg = %s,%s,%v want %s,%s", gotCmt, gotGC, err, cmt, gc)
	}
	gotCmt, gotGC, err = decodeCommitMsg(encodeLSN(cmt))
	if err != nil || gotCmt != cmt || !gotGC.IsZero() {
		t.Fatalf("legacy decodeCommitMsg = %s,%s,%v", gotCmt, gotGC, err)
	}
	if _, _, err := decodeCommitMsg(nil); err == nil {
		t.Error("empty commit payload accepted")
	}
}

func TestWriteOpRoundTrip(t *testing.T) {
	op := WriteOp{
		Row: "user:42",
		Cols: []ColWrite{
			{Col: "email", Value: []byte("x@example.com"), Version: 7},
			{Col: "old", Delete: true, Cond: true, CondVersion: 3, Version: 8},
		},
	}
	got, n, err := DecodeWriteOp(EncodeWriteOp(nil, op))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || got.Row != op.Row || len(got.Cols) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	c0, c1 := got.Cols[0], got.Cols[1]
	if c0.Col != "email" || !bytes.Equal(c0.Value, op.Cols[0].Value) || c0.Version != 7 || c0.Cond || c0.Delete {
		t.Errorf("col 0 = %+v", c0)
	}
	if c1.Col != "old" || !c1.Delete || !c1.Cond || c1.CondVersion != 3 || c1.Version != 8 {
		t.Errorf("col 1 = %+v", c1)
	}
}

func TestWriteOpTruncation(t *testing.T) {
	op := WriteOp{Row: "r", Cols: []ColWrite{{Col: "c", Value: []byte("v")}}}
	buf := EncodeWriteOp(nil, op)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeWriteOp(buf[:cut]); err == nil {
			t.Fatalf("cut %d decoded", cut)
		}
	}
}

func TestWriteOpProperty(t *testing.T) {
	f := func(row, col string, value []byte, del, cond bool, cv, v uint64) bool {
		if len(row) > 1<<15 || len(col) > 1<<15 {
			return true
		}
		op := WriteOp{Row: row, Cols: []ColWrite{{
			Col: col, Value: value, Delete: del, Cond: cond, CondVersion: cv, Version: v,
		}}}
		got, _, err := DecodeWriteOp(EncodeWriteOp(nil, op))
		if err != nil || got.Row != row || len(got.Cols) != 1 {
			return false
		}
		c := got.Cols[0]
		return c.Col == col && bytes.Equal(c.Value, value) && c.Delete == del &&
			c.Cond == cond && c.CondVersion == cv && c.Version == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteOpEntries(t *testing.T) {
	op := WriteOp{Row: "r", Cols: []ColWrite{
		{Col: "a", Value: []byte("1"), Version: 9},
		{Col: "b", Delete: true, Version: 9},
	}}
	lsn := wal.MakeLSN(2, 5)
	var entries entryList
	applyOp(&entries, op, lsn)
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Key != (kv.Key{Row: "r", Col: "a"}) || entries[0].Cell.LSN != lsn {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if !entries[1].Cell.Deleted {
		t.Error("tombstone lost")
	}
}

func TestCatchupCodecs(t *testing.T) {
	req := catchupReq{
		Cmt:       wal.MakeLSN(1, 10),
		Ambiguous: []wal.LSN{wal.MakeLSN(1, 11), wal.MakeLSN(1, 22)},
	}
	gotReq, err := decodeCatchupReq(encodeCatchupReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if gotReq.Cmt != req.Cmt || len(gotReq.Ambiguous) != 2 || gotReq.Ambiguous[1] != wal.MakeLSN(1, 22) {
		t.Fatalf("req = %+v", gotReq)
	}

	resp := catchupResp{
		Status:  StatusOK,
		Cmt:     wal.MakeLSN(2, 30),
		Present: []wal.LSN{wal.MakeLSN(1, 11)},
		Entries: []kv.Entry{
			{Key: kv.Key{Row: "r", Col: "c"},
				Cell: kv.Cell{Value: []byte("v"), Version: 5, LSN: wal.MakeLSN(1, 11)}},
		},
	}
	gotResp, err := decodeCatchupResp(encodeCatchupResp(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Cmt != resp.Cmt || len(gotResp.Present) != 1 || len(gotResp.Entries) != 1 {
		t.Fatalf("resp = %+v", gotResp)
	}
	if string(gotResp.Entries[0].Cell.Value) != "v" {
		t.Errorf("entry value = %q", gotResp.Entries[0].Cell.Value)
	}
}

func TestResultCodecs(t *testing.T) {
	wr := writeResult{Status: StatusVersionMismatch, Detail: "column c at 5", Versions: []uint64{1, 2}}
	gotWR, err := decodeWriteResult(encodeWriteResult(wr))
	if err != nil {
		t.Fatal(err)
	}
	if gotWR.Status != wr.Status || gotWR.Detail != wr.Detail || len(gotWR.Versions) != 2 {
		t.Fatalf("writeResult = %+v", gotWR)
	}

	gr := getResp{Status: StatusOK, Value: []byte("value"), Version: 42}
	gotGR, err := decodeGetResp(encodeGetResp(gr))
	if err != nil {
		t.Fatal(err)
	}
	if gotGR.Version != 42 || string(gotGR.Value) != "value" {
		t.Fatalf("getResp = %+v", gotGR)
	}

	req := getReq{Row: "row", Col: "col", Consistent: true}
	gotReq, err := decodeGetReq(encodeGetReq(req))
	if err != nil {
		t.Fatal(err)
	}
	if gotReq != req {
		t.Fatalf("getReq = %+v", gotReq)
	}

	rr := rowResp{Status: StatusOK, Entries: []kv.Entry{
		{Key: kv.Key{Row: "r", Col: "a"}, Cell: kv.Cell{Value: []byte("1")}},
		{Key: kv.Key{Row: "r", Col: "b"}, Cell: kv.Cell{Value: []byte("2")}},
	}}
	gotRR, err := decodeRowResp(encodeRowResp(rr))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRR.Entries) != 2 || gotRR.Entries[1].Key.Col != "b" {
		t.Fatalf("rowResp = %+v", gotRR)
	}
}

func TestStatusError(t *testing.T) {
	if StatusError(StatusOK, "") != nil {
		t.Error("OK produced an error")
	}
	if !errors.Is(StatusError(StatusNotFound, ""), ErrNotFound) {
		t.Error("NotFound mapping")
	}
	if !errors.Is(StatusError(StatusNotLeader, "n2"), ErrNotLeader) {
		t.Error("NotLeader mapping")
	}
	if !errors.Is(StatusError(StatusVersionMismatch, ""), ErrVersionMismatch) {
		t.Error("VersionMismatch mapping")
	}
	if !errors.Is(StatusError(StatusUnavailable, "x"), ErrUnavailable) {
		t.Error("Unavailable mapping")
	}
	if StatusError(StatusBadRequest, "bad") == nil {
		t.Error("BadRequest produced nil")
	}
}

func TestRoleString(t *testing.T) {
	for role, want := range map[Role]string{
		RoleRecovering: "recovering", RoleFollower: "follower",
		RoleCandidate: "candidate", RoleLeader: "leader", Role(9): "Role(9)",
	} {
		if got := role.String(); got != want {
			t.Errorf("%d.String() = %q want %q", role, got, want)
		}
	}
}

func TestProposeBatchRoundTrip(t *testing.T) {
	p := proposeBatchPayload{
		CommittedThrough: wal.MakeLSN(1, 40),
		Recs: []proposeRec{
			{LSN: wal.MakeLSN(1, 41), Op: WriteOp{Row: "a", Cols: []ColWrite{{Col: "c", Value: []byte("x"), Version: 41}}}},
			{LSN: wal.MakeLSN(1, 42), Op: WriteOp{Row: "b", Cols: []ColWrite{{Col: "d", Delete: true, Version: 42}}}},
		},
	}
	got, err := decodeProposeBatch(encodeProposeBatch(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.CommittedThrough != p.CommittedThrough || len(got.Recs) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	if got.Recs[0].LSN != p.Recs[0].LSN || got.Recs[0].Op.Row != "a" ||
		!bytes.Equal(got.Recs[0].Op.Cols[0].Value, []byte("x")) {
		t.Errorf("rec 0 = %+v", got.Recs[0])
	}
	if got.Recs[1].LSN != p.Recs[1].LSN || !got.Recs[1].Op.Cols[0].Delete {
		t.Errorf("rec 1 = %+v", got.Recs[1])
	}
}

func TestProposeBatchEmpty(t *testing.T) {
	got, err := decodeProposeBatch(encodeProposeBatch(proposeBatchPayload{}))
	if err != nil || len(got.Recs) != 0 {
		t.Fatalf("empty batch: %+v, %v", got, err)
	}
}

func TestProposeBatchTruncation(t *testing.T) {
	buf := encodeProposeBatch(proposeBatchPayload{
		Recs: []proposeRec{{LSN: wal.MakeLSN(1, 1), Op: WriteOp{Row: "r", Cols: []ColWrite{{Col: "c"}}}}},
	})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeProposeBatch(buf[:cut]); err == nil {
			t.Fatalf("cut %d decoded", cut)
		}
	}
}

// --- Codec microbenchmarks ---------------------------------------------------
//
// Every codec pair on the replication hot path gets a -benchmem round-trip
// benchmark so per-message allocation cost is pinned (allocs/op is exact and
// repeats).

// benchOp builds a representative 256-byte single-column write.
func benchOp(lsn wal.LSN) WriteOp {
	return WriteOp{Row: "user:0042134077", Cols: []ColWrite{{
		Col: "c", Value: bytes.Repeat([]byte("v"), 256), Version: uint64(lsn),
	}}}
}

func benchBatch(n int) proposeBatchPayload {
	p := proposeBatchPayload{CommittedThrough: wal.MakeLSN(3, 100)}
	for i := 0; i < n; i++ {
		lsn := wal.MakeLSN(3, uint64(101+i))
		p.Recs = append(p.Recs, proposeRec{LSN: lsn, Op: benchOp(lsn)})
	}
	return p
}

func benchmarkProposeBatch(b *testing.B, n int) {
	p := benchBatch(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := decodeProposeBatch(encodeProposeBatch(p))
		if err != nil || len(got.Recs) != n {
			b.Fatalf("decoded %d recs, err %v", len(got.Recs), err)
		}
	}
}

func BenchmarkProposeBatchRoundTrip1(b *testing.B)  { benchmarkProposeBatch(b, 1) }
func BenchmarkProposeBatchRoundTrip8(b *testing.B)  { benchmarkProposeBatch(b, 8) }
func BenchmarkProposeBatchRoundTrip64(b *testing.B) { benchmarkProposeBatch(b, 64) }

func BenchmarkAckRoundTrip(b *testing.B) {
	lsn, floor := wal.MakeLSN(3, 77), wal.MakeLSN(3, 41)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeAck(encodeAck(lsn, floor)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommitMsgRoundTrip(b *testing.B) {
	cmt, gc := wal.MakeLSN(2, 900), wal.MakeLSN(2, 850)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeCommitMsg(encodeCommitMsg(cmt, gc)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteResultRoundTrip(b *testing.B) {
	wr := writeResult{Status: StatusOK, Versions: []uint64{uint64(wal.MakeLSN(3, 9))}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeWriteResult(encodeWriteResult(wr)); err != nil {
			b.Fatal(err)
		}
	}
}
