package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

// Fuzz harnesses for every wire decoder in proto.go and snapproto.go. Each
// decoder must be total on arbitrary bytes — return an error, never panic,
// and never let a forged count or length field drive an allocation larger
// than the payload that claims it (the hardening these corpora pin; see the
// checked-in testdata/fuzz seeds with forged count fields). On top of
// no-panic, every accepted value must be a codec fixpoint: re-encoding it
// and decoding the result yields an equal value, so the encoder and decoder
// agree on everything the decoder admits.

// fixpoint re-encodes a decoded value and decodes the result, failing if
// the second decode errors or disagrees with the first.
func fixpoint[T any](t *testing.T, first T, enc func(T) []byte, dec func([]byte) (T, error)) {
	t.Helper()
	b := enc(first)
	second, err := dec(b)
	if err != nil {
		t.Fatalf("decoder rejected its own encoder's output: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("decode/encode is not a fixpoint:\n first: %+v\nsecond: %+v", first, second)
	}
}

func fuzzWriteOp() WriteOp {
	return WriteOp{Row: "row-7", Cols: []ColWrite{
		{Col: "a", Value: []byte("hello")},
		{Col: "b", Delete: true},
		{Col: "c", Cond: true, CondVersion: 9, Value: []byte{0, 1, 2}},
		{Col: "d", Delete: true, Cond: true, CondVersion: 10},
	}}
}

func fuzzEntries() []kv.Entry {
	return []kv.Entry{
		{Key: kv.Key{Row: "r1", Col: "c1"}, Cell: kv.Cell{Value: []byte("v"), Version: 2, LSN: 5}},
		{Key: kv.Key{Row: "r2", Col: "c2"}, Cell: kv.Cell{Deleted: true, Version: 6, LSN: 6}},
	}
}

// forgeCount32 returns enc with the little-endian u32 at off overwritten by
// a count far larger than the remaining payload could hold.
func forgeCount32(enc []byte, off int) []byte {
	forged := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(forged[off:], 1<<31)
	return forged
}

func FuzzDecodeWriteOp(f *testing.F) {
	f.Add(EncodeWriteOp(nil, fuzzWriteOp()))
	f.Add(EncodeWriteOp(nil, WriteOp{}))
	f.Add([]byte{0, 0, 0xff, 0xff}) // empty row, forged column count
	f.Add(EncodeWriteOp(nil, fuzzWriteOp())[:7])
	f.Add(append(EncodeWriteOp(nil, fuzzWriteOp()), 0)) // a trailing byte
	unknownFlag := EncodeWriteOp(nil, WriteOp{Row: "r", Cols: []ColWrite{{Col: "c"}}})
	unknownFlag[2+1+2+2+1] |= 0x80 // the column's flags byte
	f.Add(unknownFlag)
	f.Fuzz(func(t *testing.T, b []byte) {
		op, n, err := DecodeWriteOp(b)
		if err != nil {
			return
		}
		if n < 4 || n > len(b) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(b))
		}
		enc := EncodeWriteOp(nil, op)
		op2, n2, err := DecodeWriteOp(enc)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d bytes", n2, len(enc))
		}
		if !reflect.DeepEqual(op, op2) {
			t.Fatalf("decode/encode is not a fixpoint:\n first: %+v\nsecond: %+v", op, op2)
		}
		// The encoding is canonical: what the decoder admits is exactly
		// what the encoder writes, so a leader that logs a client's bytes
		// logs what it would have encoded.
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("accepted bytes are not the canonical encoding:\n got: %x\nwant: %x", b[:n], enc)
		}
		// The in-place variant must accept the same op, keep its bytes as
		// raw, agree on everything but aliasing, and refuse trailing bytes.
		p, err := decodeWrite(b[:n], nil)
		if err != nil || !reflect.DeepEqual(op, p.op) || !bytes.Equal(p.raw, b[:n]) {
			t.Fatalf("in-place decode disagrees: err=%v\n    copy: %+v\nin place: %+v", err, op, p)
		}
		if _, err := decodeWrite(b, nil); (err == nil) != (n == len(b)) {
			t.Fatalf("decodeWrite of %d bytes holding a %d-byte op: err=%v", len(b), n, err)
		}
	})
}

// payload turns a decoded batch back into what the leader encodes.
func payloadOf(ws []pendingWrite) []proposeRec {
	var out []proposeRec
	for i := range ws {
		w := &ws[i]
		out = append(out, proposeRec{LSN: w.lsn, Raw: w.raw})
	}
	return out
}

func FuzzDecodeProposeBatch(f *testing.F) {
	batch := []proposeRec{
		{LSN: 42, Raw: EncodeWriteOp(nil, fuzzWriteOp())},
		{LSN: 43, Raw: EncodeWriteOp(nil, WriteOp{Row: "x"})},
	}
	enc := encodeProposeBatch(nil, batch)
	f.Add(enc)
	f.Add(forgeCount32(enc, 0)) // record count far beyond the payload
	f.Add(enc[:len(enc)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodeProposeBatch(b, nil)
		if err != nil {
			return
		}
		b2 := encodeProposeBatch(nil, payloadOf(p))
		p2, err := decodeProposeBatch(b2, nil)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v", err)
		}
		if len(p) != len(p2) {
			t.Fatalf("decode/encode is not a fixpoint: %+v vs %+v", p, p2)
		}
		for i := range p {
			w, w2 := &p[i], &p2[i]
			if w.lsn != w2.lsn || !bytes.Equal(w.raw, w2.raw) || !reflect.DeepEqual(w.op, w2.op) {
				t.Fatalf("record %d not a fixpoint:\n first: %+v\nsecond: %+v", i, w, w2)
			}
		}
	})
}

func FuzzDecodeAck(f *testing.F) {
	f.Add(encodeAck(nil, 7, 3))
	f.Add(encodeAck(nil, 7, 3)[:8]) // pre-floor ack, still accepted
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		lsn, floor, err := decodeAck(b)
		if err != nil {
			return
		}
		lsn2, floor2, err := decodeAck(encodeAck(nil, lsn, floor))
		if err != nil || lsn2 != lsn || floor2 != floor {
			t.Fatalf("ack not a fixpoint: (%d,%d) vs (%d,%d), err %v", lsn, floor, lsn2, floor2, err)
		}
	})
}

func FuzzDecodeCommitMsg(f *testing.F) {
	f.Add(encodeCommitMsg(9, 4))
	f.Add(encodeCommitMsg(9, 4)[:8])
	f.Fuzz(func(t *testing.T, b []byte) {
		cmt, gc, err := decodeCommitMsg(b)
		if err != nil {
			return
		}
		cmt2, gc2, err := decodeCommitMsg(encodeCommitMsg(cmt, gc))
		if err != nil || cmt2 != cmt || gc2 != gc {
			t.Fatalf("commit not a fixpoint: (%d,%d) vs (%d,%d), err %v", cmt, gc, cmt2, gc2, err)
		}
	})
}

func FuzzDecodeCatchupReq(f *testing.F) {
	f.Add(encodeCatchupReq(catchupReq{Cmt: 5, Ambiguous: []wal.LSN{6, 7}}))
	f.Add(encodeCatchupReq(catchupReq{
		Cmt: 5, SplitPull: true, FilterLow: "100", FilterHigh: "200", NoSnap: true,
	}))
	f.Add(forgeCount32(encodeCatchupReq(catchupReq{Cmt: 1}), 8)) // ambiguous-LSN count
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeCatchupReq(b)
		if err != nil {
			return
		}
		fixpoint(t, r, encodeCatchupReq, decodeCatchupReq)
	})
}

func FuzzDecodeCatchupResp(f *testing.F) {
	enc := encodeCatchupResp(catchupResp{Status: 1, Cmt: 8, Present: []wal.LSN{9}, Entries: fuzzEntries()})
	f.Add(enc)
	f.Add(forgeCount32(encodeCatchupResp(catchupResp{Cmt: 2}), 13)) // entry count
	f.Add(enc[:20])
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeCatchupResp(b)
		if err != nil {
			return
		}
		fixpoint(t, r, encodeCatchupResp, decodeCatchupResp)
	})
}

func FuzzDecodeWriteResult(f *testing.F) {
	f.Add(encodeWriteResult(nil, writeResult{Status: 2, Detail: "cond failed", Version: 12}))
	f.Add([]byte{0, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeWriteResult(b)
		if err != nil {
			return
		}
		fixpoint(t, r, func(r writeResult) []byte { return encodeWriteResult(nil, r) }, decodeWriteResult)
	})
}

func FuzzDecodeGetReq(f *testing.F) {
	f.Add(encodeGetReq(getReq{Row: "r", Col: "c", Consistent: true}))
	f.Add(encodeGetReq(getReq{}))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeGetReq(b)
		if err != nil {
			return
		}
		fixpoint(t, r, encodeGetReq, decodeGetReq)
	})
}

func FuzzDecodeGetResp(f *testing.F) {
	f.Add(encodeGetResp(getResp{Status: 1, Value: []byte("v"), Version: 6}))
	f.Add(forgeCount32(encodeGetResp(getResp{}), 9)) // value length
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeGetResp(b)
		if err != nil {
			return
		}
		fixpoint(t, r, encodeGetResp, decodeGetResp)
	})
}

func FuzzDecodeRowResp(f *testing.F) {
	enc := encodeRowResp(rowResp{Status: 1, Entries: fuzzEntries()})
	f.Add(enc)
	f.Add(forgeCount32(encodeRowResp(rowResp{}), 1)) // entry count
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRowResp(b)
		if err != nil {
			return
		}
		fixpoint(t, r, encodeRowResp, decodeRowResp)
	})
}

func FuzzDecodeSnapManifest(f *testing.F) {
	m := snapManifest{
		Status:  1,
		Cmt:     20,
		SnapCmt: 15,
		Present: []wal.LSN{16},
		Tables: []snapTableMeta{
			{ID: 3, Size: 4096, CRC: 0xdeadbeef},
			{ID: 4, Size: 512, CRC: 7},
		},
	}
	enc := encodeSnapManifest(m)
	f.Add(enc)
	f.Add(forgeCount32(encodeSnapManifest(snapManifest{}), 21)) // table count
	f.Add(enc[:len(enc)-snapTableMetaSize/2])                   // half a table short
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeSnapManifest(b)
		if err != nil {
			return
		}
		fixpoint(t, m, encodeSnapManifest, decodeSnapManifest)
	})
}

func FuzzDecodeTableChunkReq(f *testing.F) {
	f.Add(encodeTableChunkReq(tableChunkReq{Table: 5, Offset: 1 << 16}))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeTableChunkReq(b)
		if err != nil {
			return
		}
		fixpoint(t, r, encodeTableChunkReq, decodeTableChunkReq)
	})
}

func FuzzDecodeTableChunk(f *testing.F) {
	f.Add(encodeTableChunk(tableChunk{Status: 1, Table: 5, Offset: 0, Total: 9, CRC: 7, Data: []byte("chunkdata")}))
	f.Add(forgeCount32(encodeTableChunk(tableChunk{}), 21)) // data length
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := decodeTableChunk(b)
		if err != nil {
			return
		}
		fixpoint(t, c, encodeTableChunk, decodeTableChunk)
	})
}
