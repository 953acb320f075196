package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"spinnaker/internal/core"
	"spinnaker/internal/metrics"
	"spinnaker/internal/transport"
	"spinnaker/internal/wal"
)

// Span classes. A span's name is its class plus, for transport spans, the
// message kind; both are small integers so that recording one is a few
// atomic adds and no map lookup.
const (
	classOp     = iota // one client operation, recorded by the load generator
	classCall          // Endpoint.Call until its reply
	classSend          // Endpoint.Send and Endpoint.Reply
	classHandle        // the installed handler, per inbound message
	classWAL           // Device.Append (kind 0) and Device.Force (kind 1)
	numClasses
)

const (
	maxKinds = 32
	rawSpans = 200_000

	opGet, opPut        = 0, 1
	walAppend, walForce = 0, 1
)

var className = [numClasses]string{"op", "call", "send", "handle", "wal"}

var kindName = map[uint8]string{
	0: "reply", core.MsgGet: "get", core.MsgGetRow: "getrow", core.MsgWrite: "write",
	core.MsgPropose: "propose", core.MsgAck: "ack", core.MsgCommit: "commit",
	core.MsgStateReq: "statereq", core.MsgTakeover: "takeover", core.MsgCatchupReq: "catchupreq",
	core.MsgCatchupResp: "catchupresp", core.MsgProposeBatch: "proposebatch", core.MsgAckBatch: "ackbatch",
	core.MsgSnapManifest: "snapmanifest", core.MsgTableChunkReq: "tablechunkreq", core.MsgTableChunk: "tablechunk",
}

func spanName(class int, kind uint8) string {
	switch class {
	case classOp:
		return [...]string{"op:get", "op:put"}[kind]
	case classWAL:
		return [...]string{"wal:append", "wal:force"}[kind]
	}
	name, ok := kindName[kind]
	if !ok {
		name = fmt.Sprint(kind)
	}
	return className[class] + ":" + name
}

// span is one raw record: name, start, end and the span that caused it (a
// client op for its Call, the Call for the matching handler span; 0 when
// the cause cannot be seen from outside, as for replication messages).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type rawSpan struct {
	class      uint8
	kind       uint8
	id, parent uint64
	start, end int64
}

// tracer buffers spans in memory: every span is aggregated into a
// histogram per name and the first rawSpans are kept as they are. It
// records only while on is set, so windows with and without tracing can
// alternate over one cluster.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64
	hist   [numClasses][maxKinds]metrics.Histogram
	msgs   [maxKinds]atomic.Int64 // messages sent, by kind
	bytes  [maxKinds]atomic.Int64 // payload bytes sent, by kind
	walOut atomic.Int64           // bytes appended to log devices
	rawN   atomic.Int64
	raw    []rawSpan
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), raw: make([]rawSpan, rawSpans)}
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// callID names the Call that carried message msgID from endpoint from. The
// caller learns msgID from the reply and the callee from the request, so
// both sides derive the same id without sharing state.
func callID(from string, msgID uint64) uint64 {
	return 1<<63 | endpointIndex[from]<<48 | msgID&(1<<48-1)
}

// endpointIndex numbers the bed's endpoints for callID.
var endpointIndex = func() map[string]uint64 {
	idx := make(map[string]uint64)
	for _, id := range endpointIDs {
		idx[id] = uint64(len(idx) + 1)
	}
	return idx
}()

func (t *tracer) record(class int, kind uint8, id, parent uint64, start, end time.Time) {
	if kind >= maxKinds {
		kind = maxKinds - 1
	}
	t.hist[class][kind].Observe(int64(end.Sub(start)))
	if i := t.rawN.Add(1) - 1; i < rawSpans {
		t.raw[i] = rawSpan{uint8(class), kind, id, parent, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))}
	}
}

func (t *tracer) countMsg(m transport.Message) {
	k := m.Kind
	if k >= maxKinds {
		k = maxKinds - 1
	}
	t.msgs[k].Add(1)
	t.bytes[k].Add(int64(len(m.Payload)))
}

// total returns the count and summed duration of a span name so far.
func (t *tracer) total(class int, kind uint8) (n int64, sum time.Duration) {
	s := t.hist[class][kind].Snapshot()
	return s.Count, time.Duration(s.Sum)
}

// classTotal sums total over every kind of a class.
func (t *tracer) classTotal(class int) (n int64, sum time.Duration) {
	for k := 0; k < maxKinds; k++ {
		kn, ks := t.total(class, uint8(k))
		n += kn
		sum += ks
	}
	return n, sum
}

func (t *tracer) sent() (msgs, bytes int64) {
	for k := range t.msgs {
		msgs += t.msgs[k].Load()
		bytes += t.bytes[k].Load()
	}
	return msgs, bytes
}

// writeTo writes the aggregated histograms and the raw spans as JSON.
func (t *tracer) writeTo(path string) error {
	type agg struct {
		Name   string  `json:"name"`
		Count  int64   `json:"count"`
		MeanUs float64 `json:"mean_us"`
		P50Us  float64 `json:"p50_us"`
		P99Us  float64 `json:"p99_us"`
	}
	out := struct {
		Spans   []agg  `json:"spans"`
		Dropped int64  `json:"raw_spans_dropped"`
		Raw     []span `json:"raw"`
	}{}
	for c := 0; c < numClasses; c++ {
		for k := 0; k < maxKinds; k++ {
			s := t.hist[c][k].Snapshot()
			if s.Count == 0 {
				continue
			}
			out.Spans = append(out.Spans, agg{spanName(c, uint8(k)), s.Count, s.Mean() / 1e3,
				float64(s.Quantile(0.5)) / 1e3, float64(s.Quantile(0.99)) / 1e3})
		}
	}
	n := t.rawN.Load()
	if n > rawSpans {
		out.Dropped, n = n-rawSpans, rawSpans
	}
	for _, r := range t.raw[:n] {
		out.Raw = append(out.Raw, span{spanName(int(r.class), r.kind), r.id, r.parent, r.start, r.end})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedEndpoint decorates a transport.Endpoint with spans and counts. op,
// when set, points at the id of the client operation in progress on this
// view of the endpoint: each load-generator slot calls through its own
// view (and so its own core.Client), because nothing else ties a Call to
// the operation that made it.
type tracedEndpoint struct {
	transport.Endpoint
	tr *tracer
	op *uint64
}

func (t *tracer) wrapEndpoint(ep transport.Endpoint) *tracedEndpoint {
	return &tracedEndpoint{Endpoint: ep, tr: t}
}

// view returns a decorator over the same connection whose Calls are
// children of *op.
func (e *tracedEndpoint) view(op *uint64) *tracedEndpoint {
	return &tracedEndpoint{Endpoint: e.Endpoint, tr: e.tr, op: op}
}

// Close detaches the connection; closing a view leaves it to its owner.
func (e *tracedEndpoint) Close() error {
	if e.op != nil {
		return nil
	}
	return e.Endpoint.Close()
}

func (e *tracedEndpoint) Send(m transport.Message) error {
	if !e.tr.on.Load() {
		return e.Endpoint.Send(m)
	}
	start := time.Now()
	err := e.Endpoint.Send(m)
	e.tr.record(classSend, m.Kind, e.tr.newID(), 0, start, time.Now())
	e.tr.countMsg(m)
	return err
}

func (e *tracedEndpoint) Reply(req, m transport.Message) error {
	if !e.tr.on.Load() {
		return e.Endpoint.Reply(req, m)
	}
	start := time.Now()
	err := e.Endpoint.Reply(req, m)
	e.tr.record(classSend, m.Kind, e.tr.newID(), 0, start, time.Now())
	e.tr.countMsg(m)
	return err
}

func (e *tracedEndpoint) Call(m transport.Message) (transport.Message, error) {
	if !e.tr.on.Load() {
		return e.Endpoint.Call(m)
	}
	start := time.Now()
	reply, err := e.Endpoint.Call(m)
	end := time.Now()
	var id, parent uint64
	if err == nil {
		id = callID(e.ID(), reply.ID)
	} else {
		id = e.tr.newID() // no reply, so no handler span to match
	}
	if e.op != nil {
		parent = *e.op
	}
	e.tr.record(classCall, m.Kind, id, parent, start, end)
	e.tr.countMsg(m)
	return reply, err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(m transport.Message) {
		if !e.tr.on.Load() {
			h(m)
			return
		}
		start := time.Now()
		h(m)
		var parent uint64
		if m.ID != 0 {
			parent = callID(m.From, m.ID)
		}
		e.tr.record(classHandle, m.Kind, e.tr.newID(), parent, start, time.Now())
	})
}

// tracedSegments decorates a wal.SegmentStore so that every device it
// hands out records Append and Force spans.
type tracedSegments struct {
	wal.SegmentStore
	tr *tracer
}

func (s tracedSegments) Open(id uint64) (wal.Device, error) {
	d, err := s.SegmentStore.Open(id)
	if err != nil {
		return nil, err
	}
	return tracedDevice{d, s.tr}, nil
}

func (s tracedSegments) Create(id uint64) (wal.Device, error) {
	d, err := s.SegmentStore.Create(id)
	if err != nil {
		return nil, err
	}
	return tracedDevice{d, s.tr}, nil
}

type tracedDevice struct {
	wal.Device
	tr *tracer
}

func (d tracedDevice) Append(p []byte) (int64, error) {
	if !d.tr.on.Load() {
		return d.Device.Append(p)
	}
	start := time.Now()
	off, err := d.Device.Append(p)
	d.tr.record(classWAL, walAppend, d.tr.newID(), 0, start, time.Now())
	d.tr.walOut.Add(int64(len(p)))
	return off, err
}

func (d tracedDevice) Force() error {
	if !d.tr.on.Load() {
		return d.Device.Force()
	}
	start := time.Now()
	err := d.Device.Force()
	d.tr.record(classWAL, walForce, d.tr.newID(), 0, start, time.Now())
	return err
}
