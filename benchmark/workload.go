package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"spinnaker/internal/core"
)

const quiesceTimeout = 10 * time.Second

// metric is one reported value. Samples says how many observations it
// summarises (windows for a median over windows, operations for a
// whole-phase percentile); it is printed in the table, not in the result.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counters are the cluster's public counters, summed over nodes and ranges.
type counters struct {
	walAppends, walForces          int64
	elections, flushes, compacts   int64
	readProbes, readPruned, tables int64
}

func (c *counters) add(m core.NodeMetrics) {
	c.walAppends += m.WALAppends
	c.walForces += m.WALForces
	for _, r := range m.Ranges {
		c.elections += r.Elections
		c.flushes += r.Flushes
		c.compacts += r.Compacts
		c.readProbes += r.ReadProbes
		c.readPruned += r.ReadPruned
		c.tables += int64(r.Tables)
	}
}

// counters sums the counters of the running nodes and of the instances
// that crashed before them; tables counts those of the running nodes only.
func (b *bed) counters() counters {
	b.mu.Lock()
	c := b.dead
	b.mu.Unlock()
	c.tables = 0
	for _, n := range b.liveNodes() {
		c.add(n.Metrics())
	}
	return c
}

// commitWaitUs is the median over ranges of the leader's sequence-to-commit
// p50 (RangeMetrics.WriteP50, which covers the node's whole life).
func (b *bed) commitWaitUs() float64 {
	var v []float64
	for _, n := range b.liveNodes() {
		for _, r := range n.Metrics().Ranges {
			if r.Role == core.RoleLeader.String() && r.Writes > 0 {
				v = append(v, float64(r.WriteP50)/1e3)
			}
		}
	}
	return median(v)
}

// measured is everything a run observed, before it is turned into metrics.
type measured struct {
	setups   []float64 // seconds per set-up
	unloaded []window
	loaded   []window  // failover: one window, the fault phase
	cost     []window  // the windows that say what an operation costs: loaded, or unloaded on failover
	liveHeap []float64 // MiB, sampled through the loaded phase
	before   counters  // around the loaded phase
	after    counters
	commitUs float64
	kills    []kill
	lagsUs   []float64 // failover: generator lateness per put
}

// runWorkload sets the workload up (p.setups times, keeping the last bed),
// measures it, audits the cluster and tears it down. traced installs the
// decorators, runs the layer probes first and reports the per-layer metrics
// instead of the end-to-end ones; traceOut, when set, receives the spans.
// A result with metrics comes back even when the audit fails, marked
// incorrect, together with the error.
func runWorkload(wl workload, p plan, seed int64, traced bool, dataDir, traceOut string) (res result, err error) {
	var tr *tracer
	var probes map[string]float64
	if traced {
		probes = runProbes(dataDir) // first, while the process has nothing else in it
		tr = newTracer()
		p.setups = 1
	}
	var m measured
	var b *bed
	var r *run
	tearDown := func() {
		if r != nil {
			r.close()
		}
		if b != nil {
			b.stop()
		}
	}
	defer func() { tearDown() }()
	var warmRate float64
	for i := 0; i < p.setups; i++ {
		if i > 0 {
			tearDown()
			runtime.GC() // the next set-up starts from an empty heap, like the first
		}
		start := time.Now()
		if b, err = newBed(wl.files, wl.tcp, dataDir, tr); err != nil {
			return res, fmt.Errorf("start cluster: %w", err)
		}
		r = newRun(wl, p, seed, b, tr)
		if warmRate, err = r.setUp(); err != nil {
			return res, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}

	begin := b.counters()
	if wl.failover {
		err = r.measureFailover(&m)
	} else {
		m.unloaded = r.measureWindows(1, p.unloaded, warmRate, false)
		m.before = b.counters()
		stop := make(chan struct{})
		heap := sampleLiveHeap(stop)
		m.loaded = r.measureWindows(loadedDepth, p.loaded, warmRate, true)
		close(stop)
		m.liveHeap = <-heap
		m.cost = m.loaded
	}
	if tr != nil {
		tr.on.Store(false)
	}
	if err != nil {
		return res, err
	}
	m.after = b.counters()
	m.commitUs = b.commitWaitUs()

	err = r.auditRows()
	if wl.putFrac == 0 && (m.after.flushes != begin.flushes || m.after.compacts != begin.compacts) {
		err = errors.Join(err, errors.New("a read-only workload flushed or compacted while it was measured"))
	}
	res = result{Correct: err == nil, Failed: r.failed.Load()}
	for _, w := range append(append([]window(nil), m.unloaded...), m.loaded...) {
		res.Attempted += int64(len(w.lat)) // every operation of a measured window left a sample
	}
	tearDown()
	if !traced {
		res.Metrics = endToEndMetrics(&m)
		return res, err
	}
	res.Metrics = r.perLayerMetrics(&m, probes)
	if traceOut != "" {
		err = errors.Join(err, tr.writeTo(traceOut))
	}
	return res, err
}

// measureFailover runs the failover workload's two phases, both an open
// loop: the first without faults, whose windows give the unloaded latencies
// and what a put costs, the second with the fault schedule, reported as one
// window because the crashes make its parts unlike each other.
func (r *run) measureFailover(m *measured) error {
	_, m.unloaded = r.openLoopWindows(r.plan.unloaded)
	m.cost = m.unloaded

	m.before = r.b.counters()
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	faults := make(chan error, 1)
	go func() {
		var err error
		m.kills, err = r.injectFaults(r.b.layout.RangeOf(r.keys[0]), r.plan.loaded)
		faults <- err
	}()
	stop := make(chan struct{})
	heap := sampleLiveHeap(stop)
	puts, ws := r.openLoopWindows(r.plan.loaded)
	close(stop)
	m.liveHeap = <-heap
	if err := <-faults; err != nil {
		return err
	}
	setUnavailability(m.kills, puts)
	for _, k := range m.kills {
		fmt.Fprintf(os.Stderr, "failover: crashed %s: takeover %v, unavailable %v, rejoin %v\n", k.node, k.takeover, k.unavail, k.rejoin)
	}
	lat := make([]uint32, len(puts))
	for i, put := range puts {
		lat[i] = put.sample()
		m.lagsUs = append(m.lagsUs, float64(put.lag)/1e3)
	}
	m.loaded = []window{newWindow(ws[0].from, ws[len(ws)-1].to, [][]uint32{lat})}
	return nil
}

// metricDef names a metric the benchmark reports; BENCHMARK.json lists the
// same names, units and directions (the smoke test compares the two).
type metricDef struct{ name, unit, better string }

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p95_us", "us", "lower"},
	{"loaded_p95_us", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// endToEndMetrics turns a run into the metrics a user of the system would
// see. Every timing is a median over the phase's windows.
func endToEndMetrics(m *measured) map[string]metric {
	unl, ld, cost := len(m.unloaded), len(m.loaded), len(m.cost)
	p := func(pct float64) func(window) float64 {
		return func(w window) float64 { return percentileUs(w.lat, pct) }
	}
	return map[string]metric{
		"setup_s":       {median(m.setups), "s", len(m.setups)},
		"ops_per_s":     {medianOver(m.loaded, window.opsPerSec), "1/s", ld},
		"cpu_us_per_op": {medianOver(m.cost, window.cpuUsPerOp), "us", cost},
		"lat_p50_us":    {medianOver(m.unloaded, p(50)), "us", unl},
		"lat_p95_us":    {medianOver(m.unloaded, p(95)), "us", unl},
		"loaded_p95_us": {medianOver(m.loaded, p(95)), "us", ld},
		"allocs_per_op": {medianOver(m.cost, window.allocsPerOp), "count", cost},
		"live_heap_mb":  {median(m.liveHeap), "MiB", len(m.liveHeap)},
	}
}

// printTable writes the metrics, one per line, with unit, sample count and
// direction.
func printTable(title string, defs []metricDef, ms map[string]metric) {
	fmt.Printf("%s\n", title)
	for _, d := range defs {
		v := ms[d.name]
		fmt.Printf("  %-32s %14.4f %-6s n=%-7d better=%s\n", d.name, v.Value, v.Unit, v.Samples, d.better)
	}
}
