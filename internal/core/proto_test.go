package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

func TestAckPayloadRoundTrip(t *testing.T) {
	lsn, floor := wal.MakeLSN(3, 77), wal.MakeLSN(3, 41)
	gotLSN, gotFloor, err := decodeAck(encodeAck(nil, lsn, floor))
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
			{Col: "email", Value: []byte("x@example.com")},
			{Col: "old", Delete: true, Cond: true, CondVersion: 3},
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
	if c0.Col != "email" || !bytes.Equal(c0.Value, op.Cols[0].Value) || c0.Cond || c0.Delete {
		t.Errorf("col 0 = %+v", c0)
	}
	if c1.Col != "old" || !c1.Delete || !c1.Cond || c1.CondVersion != 3 {
		t.Errorf("col 1 = %+v", c1)
	}
}

// TestWriteOpCondVersionOnlyWhenCond: a conditional column carries its
// expected version, a plain one encodes without it — a CondVersion set
// without Cond is not sent and decodes as zero.
func TestWriteOpCondVersionOnlyWhenCond(t *testing.T) {
	plain := WriteOp{Row: "r", Cols: []ColWrite{{Col: "c", Value: []byte("v"), CondVersion: 99}}}
	cond := WriteOp{Row: "r", Cols: []ColWrite{{Col: "c", Value: []byte("v"), Cond: true, CondVersion: 1 << 40}}}
	// u16 row length + row + u16 count, then u16 name length + name +
	// flags + u32 value length + value.
	const plainSize = 2 + 1 + 2 + 2 + 1 + 1 + 4 + 1
	for _, tc := range []struct {
		op       WriteOp
		size     int
		wantCond uint64
	}{{plain, plainSize, 0}, {cond, plainSize + 8, 1 << 40}} {
		enc := EncodeWriteOp(nil, tc.op)
		if len(enc) != tc.size || WriteOpEncodedSize(tc.op) != tc.size {
			t.Errorf("cond=%v: encoded %d bytes (size says %d), want %d", tc.op.Cols[0].Cond, len(enc), WriteOpEncodedSize(tc.op), tc.size)
		}
		got, n, err := DecodeWriteOp(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("cond=%v: decode = %d, %v", tc.op.Cols[0].Cond, n, err)
		}
		if c := got.Cols[0]; c.Cond != tc.op.Cols[0].Cond || c.CondVersion != tc.wantCond || string(c.Value) != "v" {
			t.Errorf("cond=%v: column = %+v, want CondVersion %d", tc.op.Cols[0].Cond, c, tc.wantCond)
		}
	}
}

// TestWriteOpRefusesUnknownFlags: a column flag byte with any bit but
// Delete and Cond set is refused by every decoder, since the leader logs and
// proposes a client's bytes as received.
func TestWriteOpRefusesUnknownFlags(t *testing.T) {
	op := WriteOp{Row: "r", Cols: []ColWrite{{Col: "c", Value: []byte("v")}}}
	enc := EncodeWriteOp(nil, op)
	flagsAt := 2 + 1 + 2 + 2 + 1 // row length, row, count, name length, name
	for bit := 2; bit < 8; bit++ {
		forged := append([]byte(nil), enc...)
		forged[flagsAt] |= 1 << bit
		if _, _, err := DecodeWriteOp(forged); !errors.Is(err, errWriteOpFlags) {
			t.Errorf("flag bit %d: DecodeWriteOp err = %v, want errWriteOpFlags", bit, err)
		}
		if _, err := decodeWrite(forged, nil); !errors.Is(err, errWriteOpFlags) {
			t.Errorf("flag bit %d: decodeWrite err = %v, want errWriteOpFlags", bit, err)
		}
		batch := encodeProposeBatch(nil, []proposeRec{{LSN: wal.MakeLSN(1, 1), Raw: forged}})
		if _, err := decodeProposeBatch(batch, nil); !errors.Is(err, errWriteOpFlags) {
			t.Errorf("flag bit %d: decodeProposeBatch err = %v, want errWriteOpFlags", bit, err)
		}
	}
	for _, flags := range []byte{0, colDelete, colCond, colDelete | colCond} {
		ok := append([]byte(nil), enc...)
		ok[flagsAt] = flags
		if flags&colCond != 0 {
			ok = append(ok[:flagsAt+1], append(make([]byte, 8), ok[flagsAt+1:]...)...)
		}
		if _, err := decodeWrite(ok, nil); err != nil {
			t.Errorf("flags %#x refused: %v", flags, err)
		}
	}
}

// TestDecodeWriteRefusesTrailingBytes: a client's payload must be exactly
// one op; its bytes become the write's raw, which the leader logs.
func TestDecodeWriteRefusesTrailingBytes(t *testing.T) {
	payload := EncodeWriteOp(nil, WriteOp{Row: "r", Cols: []ColWrite{{Col: "c", Value: []byte("v")}}})
	p, err := decodeWrite(payload, nil)
	if err != nil || !bytes.Equal(p.raw, payload) || &p.raw[0] != &payload[0] || cap(p.raw) != len(payload) {
		t.Fatalf("decodeWrite = %+v, %v; want raw aliasing the whole payload", p, err)
	}
	for _, extra := range [][]byte{{0}, {1, 2, 3}, payload} {
		if _, err := decodeWrite(append(append([]byte(nil), payload...), extra...), nil); !errors.Is(err, errWriteOpTrailing) {
			t.Errorf("%d trailing bytes: err = %v, want errWriteOpTrailing", len(extra), err)
		}
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
	f := func(row, col string, value []byte, del, cond bool, cv uint64) bool {
		if len(row) > 1<<15 || len(col) > 1<<15 {
			return true
		}
		if !cond {
			cv = 0 // not encoded without Cond
		}
		op := WriteOp{Row: row, Cols: []ColWrite{{
			Col: col, Value: value, Delete: del, Cond: cond, CondVersion: cv,
		}}}
		got, _, err := DecodeWriteOp(EncodeWriteOp(nil, op))
		if err != nil || got.Row != row || len(got.Cols) != 1 {
			return false
		}
		c := got.Cols[0]
		return c.Col == col && bytes.Equal(c.Value, value) && c.Delete == del &&
			c.Cond == cond && c.CondVersion == cv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWriteOpEntries(t *testing.T) {
	op := WriteOp{Row: "r", Cols: []ColWrite{
		{Col: "a", Value: []byte("1")},
		{Col: "b", Delete: true},
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
	for i, e := range entries {
		if e.Cell.Version != uint64(lsn) {
			t.Errorf("entry %d version %d, want the LSN %d", i, e.Cell.Version, uint64(lsn))
		}
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
				Cell: kv.Cell{Value: []byte("v"), Version: uint64(wal.MakeLSN(1, 11)), LSN: wal.MakeLSN(1, 11)}},
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
	for _, wr := range []writeResult{
		{Status: StatusVersionMismatch, Detail: "column c at 5"},
		{Status: StatusOK, Version: uint64(wal.MakeLSN(3, 9))},
	} {
		enc := encodeWriteResult(nil, wr)
		gotWR, err := decodeWriteResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if gotWR != wr {
			t.Fatalf("writeResult = %+v, want %+v", gotWR, wr)
		}
		if _, err := decodeWriteResult(enc[:len(enc)-1]); err == nil {
			t.Errorf("%+v: truncated result accepted", wr)
		}
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
	recs := []proposeRec{
		{LSN: wal.MakeLSN(1, 41), Raw: EncodeWriteOp(nil, WriteOp{Row: "a", Cols: []ColWrite{{Col: "c", Value: []byte("x")}}})},
		{LSN: wal.MakeLSN(1, 42), Raw: EncodeWriteOp(nil, WriteOp{Row: "b", Cols: []ColWrite{{Col: "d", Delete: true}}})},
	}
	got, err := decodeProposeBatch(encodeProposeBatch(nil, recs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %+v", got)
	}
	w0, w1 := &got[0], &got[1]
	if w0.lsn != recs[0].LSN || w0.op.Row != "a" ||
		!bytes.Equal(w0.op.Cols[0].Value, []byte("x")) {
		t.Errorf("rec 0 = %+v", w0)
	}
	if w1.lsn != recs[1].LSN || !w1.op.Cols[0].Delete {
		t.Errorf("rec 1 = %+v", w1)
	}
	// Each write's raw is the leader's record bytes, what the follower logs.
	for i := range got {
		if w := &got[i]; !bytes.Equal(w.raw, recs[i].Raw) {
			t.Errorf("rec %d raw = %x", i, w.raw)
		}
	}
}

func TestProposeBatchEmpty(t *testing.T) {
	got, err := decodeProposeBatch(encodeProposeBatch(nil, nil), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %+v, %v", got, err)
	}
}

func TestProposeBatchTruncation(t *testing.T) {
	buf := encodeProposeBatch(nil, []proposeRec{
		{LSN: wal.MakeLSN(1, 1), Raw: EncodeWriteOp(nil, WriteOp{Row: "r", Cols: []ColWrite{{Col: "c"}}})},
	})
	for cut := 0; cut < len(buf); cut++ {
		if _, err := decodeProposeBatch(buf[:cut], nil); err == nil {
			t.Fatalf("cut %d decoded", cut)
		}
	}
}

// allocsOp is a single- or multi-column write whose row and column names are
// too long for the allocator's tiny blocks, so every copy of them counts.
func allocsOp(i, cols int) WriteOp {
	op := WriteOp{Row: fmt.Sprintf("row-allocs-%012d", i)}
	for c := 0; c < cols; c++ {
		op.Cols = append(op.Cols, ColWrite{Col: fmt.Sprintf("column-name-%04d", c),
			Value: bytes.Repeat([]byte("v"), 128)})
	}
	return op
}

// TestProposeDecodeAllocs: a follower decodes a propose batch in place into
// pending writes taken from its replica's chunk. Each write's row, column
// names and values alias the payload, and a single-column write's column
// lives inside its pending write, so a batch costs no object of its own: one
// block of pendingBlock writes serves many batches (1 000 batches of 16
// writes take 250 blocks, which AllocsPerRun's per-run average rounds down
// to 0; an exact array per batch reads 1).
func TestProposeDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, recs := range []int{1, 16} {
		var p []proposeRec
		var ops []WriteOp
		for i := 0; i < recs; i++ {
			ops = append(ops, allocsOp(i, 1))
			p = append(p, proposeRec{LSN: wal.MakeLSN(2, uint64(8+i)), Raw: EncodeWriteOp(nil, ops[i])})
		}
		payload := encodeProposeBatch(nil, p)
		pending := chunk[pendingWrite]{size: pendingBlock}
		var (
			got []pendingWrite
			err error
		)
		n := testing.AllocsPerRun(1000, func() { got, err = decodeProposeBatch(payload, &pending) })
		if err != nil || len(got) != recs {
			t.Fatalf("%d records: decoded %d, %v", recs, len(got), err)
		}
		for i := range got {
			if w := &got[i]; !reflect.DeepEqual(w.op, ops[i]) || w.lsn != p[i].LSN {
				t.Fatalf("%d records: record %d = %v %+v, want %v %+v", recs, i, w.lsn, w.op, p[i].LSN, ops[i])
			}
		}
		if n > 0 {
			t.Errorf("decoding a %d-record batch allocates %v objects, want 0 (its share of a block)", recs, n)
		}
	}
}

// TestWriteDecodeAllocs: the leader decodes a client's write in place into
// a pending write taken from its replica's chunk, the entry that carries it
// to its commit. A single-column write costs no object of its own; more
// columns add their slice.
func TestWriteDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		cols int
		max  float64
	}{{1, 0}, {3, 1}} {
		op := allocsOp(1, tc.cols)
		payload := EncodeWriteOp(nil, op)
		pending := chunk[pendingWrite]{size: pendingBlock}
		var (
			p   *pendingWrite
			err error
		)
		// 200 writes take 4 blocks, which AllocsPerRun's per-run average
		// rounds down to 0.
		n := testing.AllocsPerRun(200, func() { p, err = decodeWrite(payload, &pending) })
		if err != nil || !reflect.DeepEqual(p.op, op) {
			t.Fatalf("%d columns: decoded %+v, %v; want %+v", tc.cols, p, err, op)
		}
		if n > tc.max {
			t.Errorf("decoding a %d-column write allocates %v objects, want ≤ %v", tc.cols, n, tc.max)
		}
	}
}

// TestWriteResultAllocs: a committed write's reply is encoded into its
// pending write's reply array, so the round trip (the
// codec-write-result-roundtrip hook) allocates nothing. A reply with a
// detail string does not fit: its encode is one object and the decoded
// detail another.
func TestWriteResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var p pendingWrite
	for _, tc := range []struct {
		wr  writeResult
		max float64
	}{
		{writeResult{Status: StatusOK, Version: uint64(wal.MakeLSN(3, 9))}, 0},
		{writeResult{Status: StatusNotLeader, Detail: "node-7"}, 2},
	} {
		var (
			got writeResult
			err error
		)
		n := testing.AllocsPerRun(500, func() { got, err = decodeWriteResult(encodeWriteResult(p.reply[:0], tc.wr)) })
		if err != nil || got != tc.wr {
			t.Fatalf("round trip = %+v, %v; want %+v", got, err, tc.wr)
		}
		if n > tc.max {
			t.Errorf("a round trip of %+v allocates %v objects, want ≤ %v", tc.wr, n, tc.max)
		}
	}
}

// TestChunkHandsOutEachElementOnce: a chunk hands out capped, zero
// sub-slices and never the same element twice, however the takes fall
// against block boundaries — so a receiver may keep and write what it took.
func TestChunkHandsOutEachElementOnce(t *testing.T) {
	c := chunk[int]{size: 8}
	seen := map[*int]bool{}
	// 3+4 leave one element; 2 crosses into a new block mid-sequence; 8 is
	// a whole block; 9 is larger than a block; 0 takes nothing.
	for i, n := range []int{3, 4, 2, 8, 1, 9, 5, 5, 0, 7, 1, 1, 6} {
		s := c.take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("take %d (%d): len %d cap %d", i, n, len(s), cap(s))
		}
		for j := range s {
			if s[j] != 0 {
				t.Fatalf("take %d (%d): element %d = %d, want a zero element", i, n, j, s[j])
			}
			if seen[&s[j]] {
				t.Fatalf("take %d (%d): element %d was handed out before", i, n, j)
			}
			seen[&s[j]] = true
			s[j] = i + 1 // the receiver keeps and writes what it took
		}
	}
}

// TestChunkLargeTakeGetsItsOwnBlock: a take larger than a block is a block of
// its own size, and the current block goes on serving the takes after it.
func TestChunkLargeTakeGetsItsOwnBlock(t *testing.T) {
	c := chunk[byte]{size: 16}
	a := c.take(5)
	block := c.block
	big := c.take(40)
	b := c.take(4)
	if len(big) != 40 || cap(big) != 40 {
		t.Fatalf("large take: len %d cap %d", len(big), cap(big))
	}
	if &a[0] != &block[0] || &b[0] != &block[5] {
		t.Error("the take after a large one did not continue the current block")
	}
	for i := range block {
		if &block[i] == &big[0] || &block[i] == &big[len(big)-1] {
			t.Fatal("a large take shares the current block")
		}
	}
}

// TestChunkBlockBoundaryMidBatch: a propose batch's writes are taken together,
// so a batch that does not fit in what is left of the pending block starts a
// new one, and batches encoded into a shared byte chunk (the drain loop's)
// decode, after later batches were encoded and decoded behind them, to what
// they were.
func TestChunkBlockBoundaryMidBatch(t *testing.T) {
	props := chunk[byte]{size: 1 << 10}
	pending := chunk[pendingWrite]{size: 8}
	type kept struct {
		b   []pendingWrite
		ops []WriteOp
	}
	var all []kept
	seq := uint64(1)
	for batch := 0; batch < 12; batch++ {
		recs := 1 + batch%5 // 1..5 writes: the 8-write block ends mid-batch
		var p []proposeRec
		var ops []WriteOp
		for i := 0; i < recs; i++ {
			op := WriteOp{Row: fmt.Sprintf("row-%03d", seq), Cols: []ColWrite{{Col: "c",
				Value: bytes.Repeat([]byte{byte(seq)}, 60+int(seq))}}}
			ops = append(ops, op)
			p = append(p, proposeRec{LSN: wal.MakeLSN(1, seq), Raw: EncodeWriteOp(nil, op)})
			seq++
		}
		left := pending.size - pending.next
		if pending.block == nil {
			left = 0
		}
		b, err := decodeProposeBatch(encodeProposeBatch(&props, p), &pending)
		if err != nil || len(b) != recs {
			t.Fatalf("batch %d: %d writes, %v", batch, len(b), err)
		}
		if recs > left && &b[0] != &pending.block[0] {
			t.Fatalf("batch %d: %d writes with %d slots left did not start a new block", batch, recs, left)
		}
		all = append(all, kept{b, ops})
	}
	for i, k := range all {
		for j := range k.b {
			if w := &k.b[j]; !reflect.DeepEqual(w.op, k.ops[j]) {
				t.Fatalf("batch %d write %d = %+v, want %+v", i, j, w.op, k.ops[j])
			}
		}
	}
}

// TestChunkNilAllocatesExactly: a nil chunk allocates every take on its own,
// at exactly the size asked for (retransmissions and tests use it).
func TestChunkNilAllocatesExactly(t *testing.T) {
	var c *chunk[byte]
	if s := c.take(13); len(s) != 13 || cap(s) != 13 {
		t.Fatalf("nil take: len %d cap %d", len(s), cap(s))
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.take(100) }); n != 1 {
		t.Errorf("a nil chunk's take allocates %v objects, want 1", n)
	}
}

// --- Codec microbenchmarks ---------------------------------------------------
//
// Every codec pair on the replication hot path gets a -benchmem round-trip
// benchmark so per-message allocation cost is pinned (allocs/op is exact and
// repeats).

// benchBatch builds n representative 256-byte single-column writes.
func benchBatch(n int) []proposeRec {
	raw := EncodeWriteOp(nil, WriteOp{Row: "user:0042134077", Cols: []ColWrite{{
		Col: "c", Value: bytes.Repeat([]byte("v"), 256),
	}}})
	var p []proposeRec
	for i := 0; i < n; i++ {
		p = append(p, proposeRec{LSN: wal.MakeLSN(3, uint64(101+i)), Raw: raw})
	}
	return p
}

func benchmarkProposeBatch(b *testing.B, n int) {
	p := benchBatch(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := decodeProposeBatch(encodeProposeBatch(nil, p), nil)
		if err != nil || len(got) != n {
			b.Fatalf("decoded %d recs, err %v", len(got), err)
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
		if _, _, err := decodeAck(encodeAck(nil, lsn, floor)); err != nil {
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
	wr := writeResult{Status: StatusOK, Version: uint64(wal.MakeLSN(3, 9))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeWriteResult(encodeWriteResult(nil, wr)); err != nil {
			b.Fatal(err)
		}
	}
}
