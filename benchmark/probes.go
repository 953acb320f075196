package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/core"
	"spinnaker/internal/kv"
	"spinnaker/internal/memtable"
	"spinnaker/internal/metrics"
	"spinnaker/internal/sstable"
	"spinnaker/internal/storage"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// The probes call each layer's exported functions directly, from one
// goroutine, a fixed number of times: what one call costs with nothing
// else running. They do not depend on the workload.

const probeRows = 20_000

// perCall makes n calls of f, timed in five equal parts, and returns the
// median part's nanoseconds per call: a garbage collection or a neighbour's
// burst lands in one part, not in the answer.
func perCall(n int, f func(i int)) float64 {
	const parts = 5
	var ns []float64
	for p := 0; p < parts; p++ {
		from, to := p*n/parts, (p+1)*n/parts
		start := time.Now()
		for i := from; i < to; i++ {
			f(i)
		}
		ns = append(ns, float64(time.Since(start))/float64(to-from))
	}
	return median(ns)
}

func probeKey(i int) kv.Key { return kv.Key{Row: fmt.Sprintf("%0*d", keyWidth, i*1000), Col: column} }

func probeEntry(i int, value []byte) kv.Entry {
	return kv.Entry{Key: probeKey(i), Cell: kv.Cell{Value: value, Version: uint64(i + 1), LSN: wal.MakeLSN(1, uint64(i+1))}}
}

// runProbes returns every probe's value by per-layer metric name; a probe
// that cannot run reports 0 and says why on standard error.
func runProbes(dataDir string) map[string]float64 {
	// In a heap of a few MiB the collector would run every few
	// milliseconds of a probe that allocates, and how often decides the
	// answer (wal.append_1k_ns read 2.8 µs or 5.9 µs). Holding 256 MiB
	// keeps it out of the probes altogether.
	ballast := make([]byte, 256<<20)
	defer runtime.KeepAlive(ballast)
	out := make(map[string]float64)
	value := make([]byte, 256)
	big := make([]byte, 1024)
	entries := make([]kv.Entry, probeRows)
	for i := range entries {
		entries[i] = probeEntry(2*i, value) // odd rows stay absent
	}
	fail := func(what string, err error) { fmt.Fprintf(os.Stderr, "probe %s: %v\n", what, err) }

	// core: the client-side and replication codecs.
	op := core.WriteOp{Row: "00001000", Cols: []core.ColWrite{{Col: column, Value: big}}}
	var buf []byte
	out["core.encode_writeop_ns"] = perCall(200_000, func(int) { buf = core.EncodeWriteOp(buf[:0], op) })
	testing.Init()
	_ = flag.Set("test.benchtime", "1000x") // a fixed count, not a time budget; the flag exists after Init
	codec := core.CodecBenchmarks()["codec-propose-batch-roundtrip-64"]
	var rounds []float64
	for i := 0; i < 5; i++ {
		rounds = append(rounds, float64(testing.Benchmark(codec).NsPerOp()))
	}
	out["core.codec_batch64_ns"] = median(rounds)

	// transport: framing, and a Call round trip to an echo handler.
	msg := transport.Message{From: "n0", To: "n1", Kind: core.MsgWrite, Payload: big}
	out["transport.encode_ns"] = perCall(100_000, func(int) {
		if _, err := transport.DecodeMessage(transport.EncodeMessage(msg)[4:]); err != nil {
			panic(err) // the codec cannot reject its own output
		}
	})
	net := transport.NewNetwork(0)
	out["transport.local_rtt_us"] = echoRTT(net.Join("a"), net.Join("b"), 20_000) / 1e3
	net.Close()
	if eps, err := listenAll([]string{"a", "b"}); err != nil {
		fail("transport.tcp_rtt_us", err)
	} else {
		out["transport.tcp_rtt_us"] = echoRTT(eps["a"], eps["b"], 5_000) / 1e3
	}

	// wal: framing and the append path over a memory device, and what a
	// force costs on this machine's file system.
	if log, err := wal.Open(wal.Config{Store: wal.NewMemSegmentStore(wal.DeviceInstant), SegmentBytes: 4 << 20, GroupCommit: true}); err != nil {
		fail("wal", err)
	} else {
		rec := wal.Record{Cohort: 0, Type: wal.RecWrite, Payload: big}
		out["wal.append_1k_ns"] = perCall(20_000, func(i int) {
			rec.LSN = wal.MakeLSN(1, uint64(i+1))
			if _, err := log.Append(rec); err != nil {
				fail("wal.append_1k_ns", err)
			}
		})
		batch := make([]wal.Record, 64)
		for i := range batch {
			batch[i] = wal.Record{Type: wal.RecWrite, LSN: wal.MakeLSN(2, uint64(i+1)), Payload: value}
		}
		out["wal.append_batch64_ns_per_rec"] = perCall(500, func(int) {
			if _, err := log.AppendBatch(batch); err != nil {
				fail("wal.append_batch64_ns_per_rec", err)
			}
		}) / 64
		log.Close()
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		fail("wal.file_force_us", err)
	} else if f, err := os.CreateTemp(dataDir, "probe-"); err != nil {
		fail("wal.file_force_us", err)
	} else {
		f.Close()
		defer os.Remove(f.Name())
		if dev, err := wal.OpenFileDevice(f.Name()); err != nil {
			fail("wal.file_force_us", err)
		} else {
			var forcing time.Duration
			const forces = 200
			for i := 0; i < forces; i++ {
				if _, err := dev.Append(big); err != nil {
					fail("wal.file_force_us", err)
				}
				start := time.Now()
				if err := dev.Force(); err != nil {
					fail("wal.file_force_us", err)
				}
				forcing += time.Since(start)
			}
			out["wal.file_force_us"] = float64(forcing) / forces / 1e3
			dev.Close()
		}
	}

	// memtable.
	mt := memtable.New()
	out["memtable.apply_ns"] = perCall(probeRows, func(i int) { mt.Apply(entries[i].Key, entries[i].Cell) })
	out["memtable.get_ns"] = perCall(probeRows, func(i int) { mt.Get(entries[i*7919%probeRows].Key) })

	// sstable: build, point reads that hit, bloom-filtered misses, merge.
	var blobs [][]byte
	start := time.Now()
	for t := 0; t < 4; t++ {
		bld := sstable.NewBuilder()
		for i := t; i < probeRows; i += 4 {
			bld.Add(entries[i])
		}
		blobs = append(blobs, bld.Finish())
	}
	out["sstable.build_ns_per_entry"] = float64(time.Since(start)) / probeRows
	var tables []*sstable.Table
	for t, blob := range blobs {
		tbl, err := sstable.Open(uint64(t+1), blob)
		if err != nil {
			fail("sstable", err)
			return out
		}
		tables = append(tables, tbl)
	}
	quarter := probeRows / 4
	out["sstable.get_hit_ns"] = perCall(quarter, func(i int) { tables[0].Get(entries[i*7919%quarter*4].Key) })
	out["sstable.bloom_miss_ns"] = perCall(probeRows, func(i int) { tables[0].MayContain(probeKey(2*i + 1)) })
	var inBytes int
	for _, blob := range blobs {
		inBytes += len(blob)
	}
	start = time.Now()
	if _, err := sstable.Compact(tables, 0); err != nil {
		fail("sstable.compact_mb_per_s", err)
	}
	out["sstable.compact_mb_per_s"] = float64(inBytes) / (1 << 20) / time.Since(start).Seconds()

	// storage: the engine's apply and its three kinds of point read.
	eng, err := storage.Open(storage.Config{Tables: sstable.NewMemTableStore(), Meta: wal.NewMemMetaStore(), FlushBytes: 1 << 20})
	if err != nil {
		fail("storage", err)
		return out
	}
	defer eng.Close()
	out["storage.apply_ns"] = perCall(probeRows, func(i int) { eng.Apply(entries[i]) })
	out["storage.get_mem_ns"] = perCall(probeRows, func(i int) { eng.Get(entries[i*7919%probeRows].Key) })
	mb := float64(eng.MemtableBytes()) / (1 << 20)
	start = time.Now()
	if err := eng.Flush(); err != nil {
		fail("storage.flush_ms_per_mb", err)
	}
	out["storage.flush_ms_per_mb"] = float64(time.Since(start)) / 1e6 / mb
	out["storage.get_sst_ns"] = perCall(probeRows, func(i int) { eng.Get(entries[i*7919%probeRows].Key) })
	out["storage.get_miss_ns"] = perCall(probeRows, func(i int) { eng.Get(probeKey(2*i + 1)) })

	// The small constant terms of every operation.
	svc := coord.NewService(0)
	defer svc.Stop()
	sess := svc.Connect()
	defer sess.Close()
	if err := sess.EnsurePath("/probe"); err != nil {
		fail("coord", err)
	}
	out["coord.create_ns"] = perCall(5_000, func(i int) {
		if _, err := sess.Create(fmt.Sprintf("/probe/%d", i), value[:8], 0); err != nil {
			fail("coord.create_ns", err)
		}
	})
	out["coord.get_ns"] = perCall(50_000, func(int) {
		if _, err := sess.Get("/probe/0"); err != nil {
			fail("coord.get_ns", err)
		}
	})
	if layout, err := cluster.Uniform(nodeIDs, keyWidth, len(nodeIDs)); err != nil {
		fail("cluster.rangeof_ns", err)
	} else {
		out["cluster.rangeof_ns"] = perCall(500_000, func(i int) { layout.RangeOf(entries[i%probeRows].Key.Row) })
	}
	out["kv.encode_ns"] = perCall(200_000, func(i int) { buf = kv.EncodeEntry(buf[:0], entries[i%probeRows]) })
	var h metrics.Histogram
	out["metrics.observe_ns"] = perCall(1_000_000, func(i int) { h.Observe(int64(i)) })
	return out
}

// echoRTT returns the nanoseconds one Call from a to an echo handler on b
// takes, over calls calls, and closes both endpoints.
func echoRTT(a, b transport.Endpoint, calls int) float64 {
	defer a.Close()
	defer b.Close()
	a.SetHandler(func(transport.Message) {})
	b.SetHandler(func(m transport.Message) { _ = b.Reply(m, transport.Message{Payload: m.Payload}) })
	payload := make([]byte, 256)
	return perCall(calls, func(int) {
		if _, err := a.Call(transport.Message{To: b.ID(), Kind: core.MsgGet, Payload: payload}); err != nil {
			fmt.Fprintf(os.Stderr, "probe echo: %v\n", err)
		}
	})
}
