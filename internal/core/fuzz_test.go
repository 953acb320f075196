package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"spinnaker/internal/kv"
	"spinnaker/internal/merkle"
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
		{Col: "a", Value: []byte("hello"), Version: 3},
		{Col: "b", Delete: true, Version: 4},
		{Col: "c", Cond: true, CondVersion: 9, Version: 10, Value: []byte{0, 1, 2}},
	}}
}

func fuzzEntries() []kv.Entry {
	return []kv.Entry{
		{Key: kv.Key{Row: "r1", Col: "c1"}, Cell: kv.Cell{Value: []byte("v"), Version: 2, LSN: 5}},
		{Key: kv.Key{Row: "r2", Col: "c2"}, Cell: kv.Cell{Deleted: true, Version: 7, LSN: 6, Timestamp: 12}},
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
		// The shared-value variant must accept the same inputs and agree
		// on everything but value aliasing.
		shared, sn, err := decodeWriteOpShared(b)
		if err != nil || sn != n || !reflect.DeepEqual(op, shared) {
			t.Fatalf("shared-value decode disagrees: n=%d err=%v\n  copy: %+v\nshared: %+v", sn, err, op, shared)
		}
	})
}

func FuzzDecodeProposeBatch(f *testing.F) {
	batch := proposeBatchPayload{CommittedThrough: 41, Recs: []proposeRec{
		{LSN: 42, Op: fuzzWriteOp()},
		{LSN: 43, Op: WriteOp{Row: "x"}},
	}}
	enc := encodeProposeBatch(batch)
	f.Add(enc)
	f.Add(forgeCount32(enc, 8)) // record count far beyond the payload
	f.Add(enc[:len(enc)-3])
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodeProposeBatch(b)
		if err != nil {
			return
		}
		b2 := encodeProposeBatch(p)
		p2, err := decodeProposeBatch(b2)
		if err != nil {
			t.Fatalf("decoder rejected its own encoder's output: %v", err)
		}
		if p.CommittedThrough != p2.CommittedThrough || len(p.Recs) != len(p2.Recs) {
			t.Fatalf("decode/encode is not a fixpoint: %+v vs %+v", p, p2)
		}
		for i := range p.Recs {
			if p.Recs[i].LSN != p2.Recs[i].LSN || !bytes.Equal(p.Recs[i].Raw, p2.Recs[i].Raw) ||
				!reflect.DeepEqual(p.Recs[i].Op, p2.Recs[i].Op) {
				t.Fatalf("record %d not a fixpoint:\n first: %+v\nsecond: %+v", i, p.Recs[i], p2.Recs[i])
			}
		}
	})
}

func FuzzDecodeAck(f *testing.F) {
	f.Add(encodeAck(7, 3))
	f.Add(encodeAck(7, 3)[:8]) // pre-floor ack, still accepted
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		lsn, floor, err := decodeAck(b)
		if err != nil {
			return
		}
		lsn2, floor2, err := decodeAck(encodeAck(lsn, floor))
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
		Cmt: 5, SplitPull: true, FilterLow: "100", FilterHigh: "200", NoSnap: true, Empty: true,
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
	f.Add(encodeWriteResult(writeResult{Status: 2, Detail: "cond failed", Versions: []uint64{1, 2}}))
	f.Add([]byte{0, 0xff, 0xff, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeWriteResult(b)
		if err != nil {
			return
		}
		fixpoint(t, r, encodeWriteResult, decodeWriteResult)
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
			{ID: 3, Size: 4096, CRC: 0xdeadbeef, MinLSN: 1, MaxLSN: 15, MinRow: "a", MaxRow: "m"},
		},
		Cuts:   []string{"", "h"},
		Leaves: []merkle.Digest{{1, 2, 3}},
	}
	enc := encodeSnapManifest(m)
	f.Add(enc)
	f.Add(forgeCount32(encodeSnapManifest(snapManifest{}), 21)) // table count
	f.Add(enc[:30])
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
