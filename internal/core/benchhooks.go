package core

import (
	"bytes"
	"testing"

	"spinnaker/internal/wal"
)

// CodecBenchmarks exposes the hot-path codec round trips as testing.Benchmark
// functions so the benchmark harness (benchmark/probes.go) can measure their
// ns/op and allocs/op from a plain binary. The same pairs are benchmarked
// under `go test -bench` in proto_test.go; this hook exists because the
// codecs are unexported and the harness runs outside the test binary.
func CodecBenchmarks() map[string]func(b *testing.B) {
	raw := EncodeWriteOp(nil, WriteOp{Row: "user:0042134077", Cols: []ColWrite{{
		Col: "c", Value: bytes.Repeat([]byte("v"), 256),
	}}})
	batch := func(n int) []proposeRec {
		var recs []proposeRec
		for i := 0; i < n; i++ {
			recs = append(recs, proposeRec{LSN: wal.MakeLSN(3, uint64(101+i)), Raw: raw})
		}
		return recs
	}
	// The round trips use the write path's destinations: the drain loop's
	// propose chunk, a replica's pending chunk, a pending write's reply.
	batchBench := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			p := batch(n)
			props := chunk[byte]{size: proposeBlock}
			pending := chunk[pendingWrite]{size: pendingBlock}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeProposeBatch(encodeProposeBatch(&props, p), &pending); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return map[string]func(b *testing.B){
		"codec-propose-batch-roundtrip-8":  batchBench(8),
		"codec-propose-batch-roundtrip-64": batchBench(64),
		"codec-write-result-roundtrip": func(b *testing.B) {
			wr := writeResult{Status: StatusOK, Version: 7}
			var reply [writeResultSize]byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeWriteResult(encodeWriteResult(reply[:0], wr)); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}
