package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// snapshot is the process-wide state read at a window boundary.
type snapshot struct {
	at         time.Time
	cpu        time.Duration // user + system time of the process
	allocs     uint64        // heap objects allocated so far
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	goroutines uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/goroutines:goroutines"},
}

// takeSnapshot reads the clock, the process's CPU time and the runtime's
// counters. None of it stops the world or forces a collection.
func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return snapshot{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		goroutines: s[4].Value.Uint64(),
	}
}

// sampleLiveHeap reads the live heap every 50 ms until stop is closed and
// then delivers the samples, in MiB. The live heap moves with the flush and
// compaction cycle, seconds long; many samples place its median, a dozen
// do not.
func sampleLiveHeap(stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var mib []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- mib
				return
			case <-tick.C:
				s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
				metrics.Read(s)
				mib = append(mib, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return out
}

// failedLatency stands in for the latency of an operation that failed: it
// sorts after every real one, so a failure misses every percentile.
const failedLatency = math.MaxUint32 >> 1

// putBit marks a put's latency sample, so that one slice serves both the
// overall percentiles and the per-operation ones.
const putBit = 1 << 31

// window is what was measured between two snapshots.
type window struct {
	from, to snapshot
	lat      []uint32 // ns per operation, sorted, putBit cleared
	puts     []uint32 // the puts among them, sorted
	gets     []uint32
}

func newWindow(from, to snapshot, samples [][]uint32) window {
	w := window{from: from, to: to}
	for _, s := range samples {
		for _, v := range s {
			if v&putBit != 0 {
				w.puts = append(w.puts, v&^putBit)
			} else {
				w.gets = append(w.gets, v)
			}
		}
	}
	w.lat = append(append(w.lat, w.puts...), w.gets...)
	for _, s := range [][]uint32{w.lat, w.puts, w.gets} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return w
}

func (w window) seconds() float64 { return w.to.at.Sub(w.from.at).Seconds() }
func (w window) ops() float64     { return float64(len(w.lat)) }

func (w window) opsPerSec() float64 { return w.ops() / w.seconds() }
func (w window) cpuUsPerOp() float64 {
	return float64(w.to.cpu-w.from.cpu) / float64(time.Microsecond) / w.ops()
}
func (w window) allocsPerOp() float64 { return float64(w.to.allocs-w.from.allocs) / w.ops() }
func (w window) allocBytesPerOp() float64 {
	return float64(w.to.allocBytes-w.from.allocBytes) / w.ops()
}

// percentileUs returns the nearest-rank p-th percentile of sorted latencies
// in microseconds, 0 when there are none.
func percentileUs(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOver is the median over windows of f: one noisy-neighbour burst
// costs one window, not the run.
func medianOver(ws []window, f func(window) float64) float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return median(v)
}

// merged returns, sorted, the samples pick selects from every window.
func merged(ws []window, pick func(window) []uint32) []uint32 {
	var all []uint32
	for _, w := range ws {
		all = append(all, pick(w)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}
