package main

import (
	"time"

	"spinnaker/internal/core"
)

// perLayerDefs lists the metrics of single layers, prefixed with the
// repo's package. A traced run reports all of them; one that does not
// apply to the workload (takeover time without a crash, log appends per
// put without puts) reads 0. README.md says which end-to-end metric each
// should move, and on which workload.
var perLayerDefs = []metricDef{
	{"core.client_self_us", "us", "lower"},
	{"core.handle_write_us", "us", "lower"},
	{"core.handle_propose_us", "us", "lower"},
	{"core.handle_ack_us", "us", "lower"},
	{"core.handle_commit_us", "us", "lower"},
	{"core.handle_read_us", "us", "lower"},
	{"core.batch_size", "count", "higher"},
	{"core.commit_wait_us", "us", "lower"},
	{"core.encode_writeop_ns", "ns", "lower"},
	{"core.codec_batch64_ns", "ns", "lower"},
	{"core.takeover_ms", "ms", "lower"},
	{"core.rejoin_ms", "ms", "lower"},
	{"core.elections", "count", "lower"},
	{"transport.msgs_per_op", "count", "lower"},
	{"transport.bytes_per_op", "B", "lower"},
	{"transport.send_us", "us", "lower"},
	{"transport.local_rtt_us", "us", "lower"},
	{"transport.tcp_rtt_us", "us", "lower"},
	{"transport.encode_ns", "ns", "lower"},
	{"wal.appends_per_put", "count", "lower"},
	{"wal.forces_per_put", "count", "lower"},
	{"wal.bytes_per_user_byte", "B/B", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.force_us", "us", "lower"},
	{"wal.append_1k_ns", "ns", "lower"},
	{"wal.append_batch64_ns_per_rec", "ns", "lower"},
	{"wal.file_force_us", "us", "lower"},
	{"memtable.apply_ns", "ns", "lower"},
	{"memtable.get_ns", "ns", "lower"},
	{"sstable.get_hit_ns", "ns", "lower"},
	{"sstable.bloom_miss_ns", "ns", "lower"},
	{"sstable.build_ns_per_entry", "ns", "lower"},
	{"sstable.compact_mb_per_s", "MiB/s", "higher"},
	{"storage.apply_ns", "ns", "lower"},
	{"storage.get_mem_ns", "ns", "lower"},
	{"storage.get_sst_ns", "ns", "lower"},
	{"storage.get_miss_ns", "ns", "lower"},
	{"storage.probes_per_get", "count", "lower"},
	{"storage.pruned_frac", "frac", "higher"},
	{"storage.flush_ms_per_mb", "ms/MiB", "lower"},
	{"storage.flushes", "count", "lower"},
	{"storage.compacts", "count", "lower"},
	{"storage.tables", "count", "lower"},
	{"coord.get_ns", "ns", "lower"},
	{"coord.create_ns", "ns", "lower"},
	{"cluster.rangeof_ns", "ns", "lower"},
	{"kv.encode_ns", "ns", "lower"},
	{"metrics.observe_ns", "ns", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.goroutines", "count", "lower"},
	{"bench.loaded_p99_us", "us", "lower"},
	{"bench.lat_p99_us", "us", "lower"},
	{"bench.lat_p999_us", "us", "lower"},
	{"bench.get_p50_us", "us", "lower"},
	{"bench.put_p50_us", "us", "lower"},
	{"bench.unavail_ms", "ms", "lower"},
	{"bench.sched_lag_us", "us", "lower"},
	{"bench.trace_overhead_frac", "frac", "higher"},
	{"bench.cpu_accounted_frac", "frac", "higher"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// perLayerMetrics turns a traced run and the probes into the per-layer
// metrics. Spans and message counts exist only for the loaded windows in
// which tracing was on (the even ones; the whole fault phase on failover),
// so they are divided by the operations of those windows; the cluster's
// counters cover the whole loaded phase.
func (r *run) perLayerMetrics(m *measured, probes map[string]float64) map[string]metric {
	tr := r.tr
	var on, off []window
	for i, w := range m.loaded {
		if i%2 == 0 {
			on = append(on, w)
		} else {
			off = append(off, w)
		}
	}
	var opsOn, putsOn, cpuOn, puts, gets float64
	for _, w := range on {
		opsOn += w.ops()
		putsOn += float64(len(w.puts))
		cpuOn += us(w.to.cpu - w.from.cpu)
	}
	for _, w := range m.loaded {
		puts += float64(len(w.puts))
		gets += float64(len(w.gets))
	}
	first, last := m.loaded[0].from, m.loaded[len(m.loaded)-1].to

	mean := func(class int, kinds ...uint8) float64 {
		var n int64
		var sum time.Duration
		for _, k := range kinds {
			kn, ks := tr.total(class, k)
			n += kn
			sum += ks
		}
		return ratio(us(sum), float64(n))
	}
	_, opTime := tr.classTotal(classOp)
	_, getCalls := tr.total(classCall, core.MsgGet)
	_, writeCalls := tr.total(classCall, core.MsgWrite)
	clientSelf := us(opTime - getCalls - writeCalls)
	_, handling := tr.classTotal(classHandle)
	sends, sendTime := tr.classTotal(classSend)
	msgs, msgBytes := tr.sent()
	userBytes := putsOn * float64(keyWidth+len(column)+r.wl.valueLen)
	d := func(f func(counters) int64) float64 { return float64(f(m.after) - f(m.before)) }

	var takeover, rejoin, unavail []float64
	for _, k := range m.kills {
		takeover = append(takeover, float64(k.takeover)/1e6)
		rejoin = append(rejoin, float64(k.rejoin)/1e6)
		unavail = append(unavail, float64(k.unavail)/1e6)
	}
	unloaded := merged(m.unloaded, func(w window) []uint32 { return w.lat })

	v := map[string]float64{
		"core.client_self_us":    ratio(clientSelf, opsOn),
		"core.handle_write_us":   mean(classHandle, core.MsgWrite),
		"core.handle_propose_us": mean(classHandle, core.MsgProposeBatch, core.MsgPropose),
		"core.handle_ack_us":     mean(classHandle, core.MsgAckBatch, core.MsgAck),
		"core.handle_commit_us":  mean(classHandle, core.MsgCommit),
		"core.handle_read_us":    mean(classHandle, core.MsgGet),
		// One propose message goes to each of the other replicas.
		"core.batch_size":     ratio(putsOn, float64(tr.msgs[core.MsgProposeBatch].Load()+tr.msgs[core.MsgPropose].Load())/float64(len(nodeIDs)-1)),
		"core.commit_wait_us": m.commitUs,
		"core.takeover_ms":    median(takeover),
		"core.rejoin_ms":      median(rejoin),
		"core.elections":      d(func(c counters) int64 { return c.elections }),

		"transport.msgs_per_op":  ratio(float64(msgs), opsOn),
		"transport.bytes_per_op": ratio(float64(msgBytes), opsOn),
		"transport.send_us":      ratio(us(sendTime), float64(sends)),

		"wal.appends_per_put":     ratio(d(func(c counters) int64 { return c.walAppends }), puts),
		"wal.forces_per_put":      ratio(d(func(c counters) int64 { return c.walForces }), puts),
		"wal.bytes_per_user_byte": ratio(float64(tr.walOut.Load()), userBytes),
		"wal.append_us":           mean(classWAL, walAppend),
		"wal.force_us":            mean(classWAL, walForce),

		"storage.probes_per_get": ratio(d(func(c counters) int64 { return c.readProbes }), gets),
		"storage.pruned_frac":    ratio(d(func(c counters) int64 { return c.readPruned }), d(func(c counters) int64 { return c.readProbes })),
		"storage.flushes":        d(func(c counters) int64 { return c.flushes }),
		"storage.compacts":       d(func(c counters) int64 { return c.compacts }),
		"storage.tables":         float64(m.after.tables),

		"runtime.alloc_bytes_per_op": medianOver(m.cost, window.allocBytesPerOp),
		"runtime.gc_cycles":          float64(last.gcCycles - first.gcCycles),
		"runtime.gc_cpu_frac":        ratio(last.gcCPU-first.gcCPU, (last.cpu - first.cpu).Seconds()),
		"runtime.goroutines":         float64(last.goroutines),

		"bench.loaded_p99_us": medianOver(m.loaded, func(w window) float64 { return percentileUs(w.lat, 99) }),
		"bench.lat_p99_us":    percentileUs(unloaded, 99),
		"bench.lat_p999_us":   percentileUs(unloaded, 99.9),
		"bench.get_p50_us":    percentileUs(merged(m.unloaded, func(w window) []uint32 { return w.gets }), 50),
		"bench.put_p50_us":    percentileUs(merged(m.unloaded, func(w window) []uint32 { return w.puts }), 50),
		"bench.unavail_ms":    median(unavail),
		"bench.sched_lag_us":  median(m.lagsUs),
		// Throughput with tracing on over throughput with it off, in
		// alternating windows of one loaded phase.
		"bench.trace_overhead_frac": ratio(medianOver(on, window.opsPerSec), medianOver(off, window.opsPerSec)),
		// How much of an operation's processor time is inside spans
		// visible from outside: handler busy time plus the client's own.
		"bench.cpu_accounted_frac": ratio(ratio(us(handling)+clientSelf, opsOn), ratio(cpuOn, opsOn)),
	}
	for name, val := range probes {
		v[name] = val
	}
	out := make(map[string]metric, len(perLayerDefs))
	for _, def := range perLayerDefs {
		out[def.name] = metric{Value: v[def.name], Unit: def.unit, Samples: 1}
	}
	return out
}
