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
	op := func(lsn wal.LSN) WriteOp {
		return WriteOp{Row: "user:0042134077", Cols: []ColWrite{{
			Col: "c", Value: bytes.Repeat([]byte("v"), 256), Version: uint64(lsn),
		}}}
	}
	batch := func(n int) proposeBatchPayload {
		p := proposeBatchPayload{CommittedThrough: wal.MakeLSN(3, 100)}
		for i := 0; i < n; i++ {
			lsn := wal.MakeLSN(3, uint64(101+i))
			p.Recs = append(p.Recs, proposeRec{LSN: lsn, Op: op(lsn)})
		}
		return p
	}
	batchBench := func(n int) func(b *testing.B) {
		return func(b *testing.B) {
			p := batch(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeProposeBatch(encodeProposeBatch(p)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return map[string]func(b *testing.B){
		"codec-propose-batch-roundtrip-8":  batchBench(8),
		"codec-propose-batch-roundtrip-64": batchBench(64),
		"codec-write-result-roundtrip": func(b *testing.B) {
			wr := writeResult{Status: StatusOK, Versions: []uint64{7}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decodeWriteResult(encodeWriteResult(wr)); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}
