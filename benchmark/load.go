package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/sim"
	"spinnaker/internal/transport"
)

const (
	column      = "v"
	loadedDepth = 16 // operations in flight per connection in the loaded phase
	valueHeader = 24
	valueMagic  = 0x5350424e // "SPBN"
	zipfScatter = 2654435761 // odd multiplier spreading zipf ranks over the key space
)

// workload is one named traffic mix. The names are fixed: later issues
// cite them.
type workload struct {
	name, why  string
	files      bool    // file stores (real fsync, on-disk SSTables), not mem stores
	tcp        bool    // loopback TCP endpoints, not the in-process network
	failover   bool    // open loop on one range with leader crashes
	rows       int     // distinct rows
	valueLen   int     // bytes per value
	preload    bool    // put every row once during set-up
	putFrac    float64 // share of operations that are puts
	absentFrac float64 // share of gets that ask for a row never written
	zipfTheta  float64 // key skew; 0 is uniform
	warmOps    int     // operations of warm-up at the end of set-up
}

// workloads are the four that BENCHMARK.json names, in its order, and
// after them mixed-file-tcp, which the driver never runs: on a shared
// machine the latency of a real fsync moves by a quarter from one minute to
// the next, and every metric of that workload with it.
var workloads = []workload{
	{
		name: "write-mem", rows: 20_000, valueLen: 1024, putFrac: 1, warmOps: 100_000,
		why: "100% puts, in-process links, mem stores: replication CPU (codec, sequencing, commit queue, wal framing, memtable apply), flush and compaction as the tail; sstable reads and coord do nothing",
	},
	{
		name: "read-sst", rows: 100_000, valueLen: 256, preload: true, absentFrac: 0.1, warmOps: 100_000,
		why: "100% gets (45% strong, 45% timeline, 10% absent) of rows flushed to several tables per range: storage.Get, bloom, sstable.Get and the read path; a write-path change must not move it",
	},
	{
		name: "mixed-mem-tcp", tcp: true, rows: 50_000, valueLen: 1024, preload: true, putFrac: 0.2, zipfTheta: 0.99, warmOps: 20_000,
		why: "80% gets / 20% puts, zipf 0.99, over loopback TCP: transport framing and syscalls; reads and flushes share storage, so a read gain paid for with slower flushes (or the reverse) shows here",
	},
	{
		name: "failover", failover: true, rows: 20_000, valueLen: 128, putFrac: 1, warmOps: 100_000,
		why: "open loop, 1000 puts/s on one range; its leader is crashed (unforced log tail discarded) every 4 s and restarted 2 s later: elections, takeover, client re-routing, catch-up",
	},
	{
		name: "mixed-file-tcp", files: true, tcp: true, rows: 50_000, valueLen: 1024, preload: true, putFrac: 0.2, zipfTheta: 0.99, warmOps: 20_000,
		why: "mixed-mem-tcp over file stores (real fsync, on-disk SSTables), the deployment shape: wal force and group commit dominate; not in BENCHMARK.json, because it follows the disk's mood",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is how long a run sets up and measures. The benchmark's own runs
// use defaultPlan; the smoke test shrinks it.
type plan struct {
	window   time.Duration
	unloaded int // windows with one operation in flight per connection
	loaded   int // windows with loadedDepth in flight per connection (failover: with faults)
	setups   int // times the set-up runs; setup_s is their median
}

// defaultPlan splits seconds of measuring into 1 s windows, a third of
// them unloaded.
func defaultPlan(seconds int) plan {
	unloaded := (seconds + 1) / 3
	return plan{window: time.Second, unloaded: unloaded, loaded: seconds - unloaded, setups: 3}
}

// acked is the acknowledged put with the highest returned version of one
// row; maybe is set once a put of the row failed, since a failed put may
// still have taken effect.
type acked struct {
	ver, id uint64
	maybe   bool
}

// auditLog remembers, per row, what a strong read must return.
type auditLog struct {
	locks [64]sync.Mutex
	rows  []acked
}

func (a *auditLog) ack(row int, ver, id uint64) {
	l := &a.locks[row%len(a.locks)]
	l.Lock()
	if ver > a.rows[row].ver {
		a.rows[row].ver, a.rows[row].id = ver, id
	}
	l.Unlock()
}

func (a *auditLog) failed(row int) {
	l := &a.locks[row%len(a.locks)]
	l.Lock()
	a.rows[row].maybe = true
	l.Unlock()
}

func (a *auditLog) get(row int) acked {
	l := &a.locks[row%len(a.locks)]
	l.Lock()
	defer l.Unlock()
	return a.rows[row]
}

// run is one workload on one bed.
type run struct {
	wl    workload
	plan  plan
	seed  int64
	b     *bed
	tr    *tracer              // nil unless traced
	eps   []transport.Endpoint // one per connection
	conns []*core.Client       // one per connection, shared by its slots unless traced

	keys   []string // row → key
	absent []string // row → a key between keys[row] and keys[row+1], never written
	filler []byte   // what every value holds after its header
	audit  auditLog
	seqs   [][]uint64 // [connection][slot] → puts issued, part of a put's identity

	window   atomic.Int32 // index of the window being measured, -1 outside
	failed   atomic.Int64
	wrong    atomic.Int64 // outputs that failed a check
	wrongMu  sync.Mutex
	wrongs   []string     // the first few, for the report
	firstErr atomic.Value // the first failed operation's error, as a string
}

func newRun(wl workload, p plan, seed int64, b *bed, tr *tracer) *run {
	r := &run{wl: wl, plan: p, seed: seed, b: b, tr: tr}
	r.window.Store(-1)
	// Keys are strided over every range, or over the first range only
	// when all traffic must hit one leader.
	span := keySpace
	if wl.failover {
		span = keySpace / len(nodeIDs)
	}
	stride := span / wl.rows
	r.keys = make([]string, wl.rows)
	for i := range r.keys {
		r.keys[i] = fmt.Sprintf("%0*d", keyWidth, i*stride)
	}
	if wl.absentFrac > 0 {
		r.absent = make([]string, wl.rows)
		for i := range r.absent {
			r.absent[i] = fmt.Sprintf("%0*d", keyWidth, i*stride+stride/2)
		}
	}
	r.filler = make([]byte, wl.valueLen)
	rand.New(rand.NewSource(seed)).Read(r.filler)
	r.audit.rows = make([]acked, wl.rows)
	r.seqs = make([][]uint64, len(clientIDs))
	for c, id := range clientIDs {
		r.seqs[c] = make([]uint64, loadedDepth)
		ep := b.endpoint(id, true)
		r.eps = append(r.eps, ep)
		r.conns = append(r.conns, core.NewClient(b.layout, ep, b.coord, seed+int64(c)))
	}
	return r
}

func (r *run) close() {
	for _, c := range r.conns {
		c.Close()
	}
}

func (r *run) noteWrong(format string, args ...any) {
	if r.wrong.Add(1) <= 5 {
		r.wrongMu.Lock()
		r.wrongs = append(r.wrongs, fmt.Sprintf(format, args...))
		r.wrongMu.Unlock()
	}
}

// putID packs the identity of a put: connection, slot and the slot's put
// sequence number.
func putID(conn, slot int, seq uint64) uint64 {
	return uint64(conn)<<56 | uint64(slot)<<48 | seq
}

// fillValue writes a value's header (magic, row, put identity) into buf,
// whose tail already holds the filler.
func fillValue(buf []byte, row int, id uint64) {
	binary.LittleEndian.PutUint32(buf[0:], valueMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(row))
	binary.LittleEndian.PutUint64(buf[8:], id)
	binary.LittleEndian.PutUint64(buf[16:], ^id)
}

// checkValue verifies that v is a value this run wrote for row and returns
// the identity of the put that wrote it.
func (r *run) checkValue(v []byte, row int) (id uint64, err error) {
	if len(v) != r.wl.valueLen {
		return 0, fmt.Errorf("value of %d bytes, want %d", len(v), r.wl.valueLen)
	}
	if binary.LittleEndian.Uint32(v[0:]) != valueMagic || int(binary.LittleEndian.Uint32(v[4:])) != row {
		return 0, fmt.Errorf("value header is not row %d's", row)
	}
	id = binary.LittleEndian.Uint64(v[8:])
	if binary.LittleEndian.Uint64(v[16:]) != ^id || !bytes.Equal(v[valueHeader:], r.filler[valueHeader:]) {
		return 0, errors.New("value body corrupted")
	}
	return id, nil
}

// caller is one slot of one connection: it has at most one operation in
// flight. Its random stream depends only on the seed, the connection and
// the slot.
type caller struct {
	r          *run
	conn, slot int
	cl         *core.Client
	rng        *rand.Rand
	zipf       *sim.Zipf
	val        []byte
	opID       *uint64    // traced runs: id of the operation in flight, read by the endpoint view
	lat        [][]uint32 // per window
}

// newCaller makes the caller for (conn, slot) with room for the samples of
// windows windows at up to perWindow operations each.
func (r *run) newCaller(conn, slot, windows, perWindow int) *caller {
	c := &caller{
		r: r, conn: conn, slot: slot, cl: r.conns[conn],
		rng: rand.New(rand.NewSource(r.seed*1000 + int64(conn*loadedDepth+slot))),
		val: append([]byte(nil), r.filler...),
		lat: make([][]uint32, windows),
	}
	if r.wl.zipfTheta > 0 {
		c.zipf = sim.NewZipf(c.rng, r.wl.rows, r.wl.zipfTheta)
	}
	for w := range c.lat {
		c.lat[w] = make([]uint32, 0, perWindow)
	}
	if r.tr != nil {
		// A client of its own over a view of the connection's
		// endpoint, so that the view can name this slot's operation
		// as the parent of its Calls.
		c.opID = new(uint64)
		view := r.eps[conn].(*tracedEndpoint).view(c.opID)
		c.cl = core.NewClient(r.b.layout, view, r.b.coord, r.seed+int64(conn))
	}
	return c
}

func (c *caller) close() {
	if c.opID != nil {
		c.cl.Close()
	}
}

func (c *caller) pickRow() int {
	if c.zipf == nil {
		return c.rng.Intn(c.r.wl.rows)
	}
	return int(uint64(c.zipf.Next()) * zipfScatter % uint64(c.r.wl.rows))
}

// next issues one operation of the workload's mix and waits for it.
func (c *caller) next() {
	wl := &c.r.wl
	row := c.pickRow()
	if c.rng.Float64() < wl.putFrac {
		c.timed(opPut, func() error { return c.put(row) })
		return
	}
	strong := c.rng.Intn(2) == 0
	if c.rng.Float64() < wl.absentFrac {
		c.timed(opGet, func() error { return c.getAbsent(row, strong) })
		return
	}
	c.timed(opGet, func() error { return c.get(row, strong) })
}

// timed runs one operation and, inside a measured window,
// records its latency; a failure is counted wherever it happens.
func (c *caller) timed(kind uint8, op func() error) {
	r := c.r
	tracing := c.opID != nil && r.tr.on.Load()
	if tracing {
		*c.opID = r.tr.newID()
	}
	start := time.Now()
	err := op()
	end := time.Now()
	if tracing {
		r.tr.record(classOp, kind, *c.opID, 0, start, end)
	}
	if err != nil {
		r.failed.Add(1)
		r.firstErr.CompareAndSwap(nil, err.Error())
	}
	w := r.window.Load()
	if w < 0 {
		return // set-up: a failure there fails the run, nothing else is recorded
	}
	ns := uint32(failedLatency)
	if d := end.Sub(start); err == nil && d < failedLatency {
		ns = uint32(d)
	}
	if kind == opPut {
		ns |= putBit
	}
	c.lat[w] = append(c.lat[w], ns)
}

func (c *caller) put(row int) error {
	r := c.r
	seq := &r.seqs[c.conn][c.slot]
	*seq++
	id := putID(c.conn, c.slot, *seq)
	fillValue(c.val, row, id)
	ver, err := c.cl.Put(r.keys[row], column, c.val)
	if err != nil {
		r.audit.failed(row)
		return err
	}
	r.audit.ack(row, ver, id)
	return nil
}

// get reads a written row and checks what comes back: the value must be
// one this run put there, and a strong read may not be older than the
// newest put acknowledged before the read was sent.
func (c *caller) get(row int, strong bool) error {
	r := c.r
	floor := r.audit.get(row)
	v, ver, err := c.cl.Get(r.keys[row], column, strong)
	if err != nil {
		return err
	}
	if _, cerr := r.checkValue(v, row); cerr != nil {
		r.noteWrong("get %s: %v", r.keys[row], cerr)
	} else if strong && ver < floor.ver {
		r.noteWrong("strong get %s: version %d after version %d was acknowledged", r.keys[row], ver, floor.ver)
	}
	return nil
}

func (c *caller) getAbsent(row int, strong bool) error {
	_, _, err := c.cl.Get(c.r.absent[row], column, strong)
	if errors.Is(err, core.ErrNotFound) {
		return nil
	}
	if err == nil {
		c.r.noteWrong("get %s: found a row that was never written", c.r.absent[row])
	}
	return err
}

// closedLoop runs depth callers per connection, each sending its next
// operation only when the previous one has completed, and returns them
// once stop reports true and every operation in flight has completed.
// step is what a caller does each turn; stop is polled between turns.
func (r *run) closedLoop(depth, windows, perWindow int, step func(*caller), stop func() bool) []*caller {
	var callers []*caller
	for conn := range r.conns {
		for slot := 0; slot < depth; slot++ {
			callers = append(callers, r.newCaller(conn, slot, windows, perWindow))
		}
	}
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			defer c.close()
			for !stop() {
				step(c)
			}
		}(c)
	}
	wg.Wait()
	return callers
}

// countedLoop is a closed loop of a fixed number of operations: step is
// called with 0..ops-1, each exactly once.
func (r *run) countedLoop(depth, ops int, step func(c *caller, i int)) {
	var issued atomic.Int64
	r.closedLoop(depth, 0, 0, func(c *caller) {
		if i := int(issued.Add(1)) - 1; i < ops {
			step(c, i)
		}
	}, func() bool { return issued.Load() >= int64(ops) })
}

// setUp preloads the rows (when the workload reads them) and warms up with
// a fixed number of operations of the workload's mix. It returns the
// warm-up's throughput, which sizes the sample buffers.
func (r *run) setUp() (warmOpsPerSec float64, err error) {
	if r.wl.preload {
		r.countedLoop(loadedDepth, r.wl.rows, func(c *caller, i int) {
			c.timed(opPut, func() error { return c.put(i) })
		})
		// A timeline read may go to a follower, which learns of a commit
		// a commit period later: wait until all three hold every row.
		if err := r.b.quiesce(quiesceTimeout); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	r.countedLoop(loadedDepth, r.wl.warmOps, func(c *caller, _ int) { c.next() })
	if n := r.failed.Load(); n > 0 {
		return 0, fmt.Errorf("%d operations failed during set-up, first: %v", n, r.firstErr.Load())
	}
	return float64(r.wl.warmOps) / time.Since(start).Seconds(), nil
}

// measureWindows runs a closed loop at the given depth for n windows and
// returns what each window saw. In a traced run tracing alternates, on in
// even windows and off in odd ones, when alternate is set; otherwise it
// stays as it is.
func (r *run) measureWindows(depth, n int, opsPerSec float64, alternate bool) []window {
	perWindow := int(opsPerSec*r.plan.window.Seconds()*1.5)/(len(r.conns)*depth) + 1024
	snaps := make([]snapshot, 0, n+1)
	var done atomic.Bool
	go func() {
		for w := 0; w < n; w++ {
			if alternate && r.tr != nil {
				r.tr.on.Store(w%2 == 0)
			}
			snaps = append(snaps, takeSnapshot())
			r.window.Store(int32(w))
			time.Sleep(r.plan.window)
		}
		snaps = append(snaps, takeSnapshot())
		r.window.Store(-1)
		done.Store(true)
	}()
	callers := r.closedLoop(depth, n, perWindow, (*caller).next, done.Load)
	ws := make([]window, n)
	for w := range ws {
		samples := make([][]uint32, len(callers))
		for i, c := range callers {
			samples[i] = c.lat[w]
		}
		ws[w] = newWindow(snaps[w], snaps[w+1], samples)
	}
	return ws
}
