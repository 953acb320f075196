package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"spinnaker/internal/cluster"
	"spinnaker/internal/coord"
	"spinnaker/internal/kv"
	"spinnaker/internal/transport"
)

// Client implements the datastore API of §3: get / put / delete /
// conditionalPut / conditionalDelete plus the multi-column variants, each
// executed as a single-operation transaction. Writes and strongly
// consistent reads are routed to the affected key range's cohort leader
// (learned from the coordination service and cached); timeline reads go to
// a random cohort member in exchange for better performance.
type Client struct {
	ep       transport.Endpoint
	rng      *rand.Rand
	asyncSem chan struct{}

	// strictWrites stops write retries at the first ambiguous attempt
	// (transport error or StatusAmbiguous) and surfaces ErrAmbiguous
	// instead. The default transparent retry maximizes availability but
	// can execute a write more than once — a retried conditional put
	// whose first attempt committed will honestly report a version
	// mismatch for an op that took effect. History-checking harnesses
	// need the strict mode to keep recorded outcomes sound.
	strictWrites bool

	mu      sync.Mutex
	sess    *coord.Session  // replaced by renewSession once expired
	layout  *cluster.Layout // refreshed from coord on StatusWrongLayout
	leaders map[uint32]cachedLeader
}

// cachedLeader is a resolved leader together with the one-shot watch that
// was armed on its znode before the znode was read (the electionLoop
// idiom): once the watch has fired the znode has changed — the leader died,
// stepped down or was replaced — and the entry is stale, whether or not any
// call to it has failed yet.
type cachedLeader struct {
	id    string
	watch <-chan coord.Event
}

// SetStrictWrites toggles strict write handling; see the field comment.
// Call before issuing traffic.
func (c *Client) SetStrictWrites(on bool) { c.strictWrites = on }

// NewClient builds a client over its own network endpoint and
// coordination-service session.
func NewClient(layout *cluster.Layout, ep transport.Endpoint, coordSvc *coord.Service, seed int64) *Client {
	return &Client{
		layout:   layout,
		ep:       ep,
		sess:     coordSvc.Connect(),
		rng:      rand.New(rand.NewSource(seed)),
		asyncSem: make(chan struct{}, maxAsyncInFlight),
		leaders:  make(map[uint32]cachedLeader),
	}
}

// Close releases the client's coordination session.
func (c *Client) Close() {
	c.session().Close()
	c.ep.Close()
}

// session returns the client's coordination session.
func (c *Client) session() *coord.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sess
}

// renewSession heartbeats the client's coordination session, replacing it
// once it has expired: a client owns no ephemeral znodes, so nothing is
// lost. Cache hits never touch the session. An expiry fires every leader
// watch the session armed, so the next operation on each range misses and
// arrives here through leader.
func (c *Client) renewSession() *coord.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sess = c.sess.Renew()
	return c.sess
}

// rangeOf routes a row under the client's current view of the layout.
func (c *Client) rangeOf(row string) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.layout.RangeOf(row)
}

// refreshLayout re-reads the published layout from the coordination
// service, adopting it if newer. Called when a node replies
// StatusWrongLayout (the range moved or split) or when leader resolution
// fails for a range that may no longer exist.
func (c *Client) refreshLayout() {
	l, err := FetchLayout(c.renewSession())
	if err != nil {
		return // nothing published (static deployments); keep what we have
	}
	c.mu.Lock()
	if l.Version() > c.layout.Version() {
		c.layout = l
		// Leadership of moved ranges changes with the layout; drop the
		// whole cache rather than track which moved.
		for id, old := range c.leaders {
			c.sess.Unwatch(old.watch)
			delete(c.leaders, id)
		}
	}
	c.mu.Unlock()
}

// leader resolves (with caching) the leader of a range. A cache hit costs
// one non-blocking poll of the entry's watch. A miss arms a fresh watch and
// then reads the znode; when the range has no leader, that watch is handed
// back (with the error) for the caller to wait on and Unwatch.
func (c *Client) leader(rangeID uint32) (string, <-chan coord.Event, error) {
	c.mu.Lock()
	if l, ok := c.leaders[rangeID]; ok {
		select {
		case <-l.watch:
			delete(c.leaders, rangeID)
		default:
			c.mu.Unlock()
			return l.id, nil, nil
		}
	}
	c.mu.Unlock()
	sess := c.renewSession()
	watch, err := sess.Watch(leaderPath(rangeID))
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	data, err := sess.Get(leaderPath(rangeID))
	if err != nil {
		return "", watch, fmt.Errorf("%w: range %d has no leader", ErrUnavailable, rangeID)
	}
	l := cachedLeader{id: string(data), watch: watch}
	c.mu.Lock()
	if old, ok := c.leaders[rangeID]; ok {
		c.sess.Unwatch(old.watch) // a concurrent resolve stored first
	}
	c.leaders[rangeID] = l
	c.mu.Unlock()
	return l.id, nil, nil
}

// forgetLeader drops the cached leader of a range after it refused or
// failed a call, unless a concurrent operation has already replaced it.
func (c *Client) forgetLeader(rangeID uint32, id string) {
	c.mu.Lock()
	if l, ok := c.leaders[rangeID]; ok && l.id == id {
		c.sess.Unwatch(l.watch)
		delete(c.leaders, rangeID)
	}
	c.mu.Unlock()
}

// anyReplica picks a random cohort member for timeline reads; it returns
// "" when the range is unknown under the current layout (stale view).
func (c *Client) anyReplica(rangeID uint32) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.layout.CohortMember(rangeID, c.rng.Uint64())
}

// retryBackoff caps the doubling back-off between routing attempts. The
// back-off covers what no watch can see — a leader znode that exists while
// its owner is still mid-takeover (tens of milliseconds), a layout about to
// be republished — so it starts short and stays short.
const (
	minRetryBackoff = time.Millisecond
	retryBackoff    = 25 * time.Millisecond
)

// routeDeadline bounds re-routing: no attempt starts later than this after
// an operation's first miss. It is the worst-case patience of the fixed
// eight-attempt loop it replaces (a 250 ms call timeout plus a 25 ms sleep
// per attempt), so nothing that loop would have completed fails now.
const routeDeadline = 8 * (250*time.Millisecond + retryBackoff)

// reply is a decoded response; its status drives routing.
type reply interface {
	outcome() (status uint8, detail string)
}

func (r writeResult) outcome() (uint8, string) { return r.Status, r.Detail }
func (r getResp) outcome() (uint8, string)     { return r.Status, "" }
func (r rowResp) outcome() (uint8, string)     { return r.Status, "" }

// route is the client's one routing loop: resolve the row's range (again on
// every attempt, so a layout refresh re-routes the next try) and a target —
// the range's leader, or any cohort member for timeline reads — call it,
// and classify the outcome. StatusOK returns the decoded reply. A routing
// miss (no leader, NotLeader, Unavailable, WrongLayout, a transport error)
// forgets the leader, refreshes the layout where that may be the cause, and
// waits for the leader znode to change or the back-off to pass, whichever
// is first. Any other status returns the reply with its StatusError.
//
// Strict writes stop at the first attempt whose effect is unknown: a
// StatusAmbiguous reply, or a transport error that is not NeverLeft (the
// request may have reached the leader and been sequenced; a retry could
// execute it twice).
func route[R reply](c *Client, row string, kind uint8, payload []byte, toLeader bool, decode func([]byte) (R, error)) (R, error) {
	var (
		zero     R
		strict   = c.strictWrites && kind == MsgWrite
		deadline time.Time // armed at the first miss: a hit reads no clock
		backoff  = minRetryBackoff
	)
	for {
		rangeID := c.rangeOf(row)
		var (
			target string
			watch  <-chan coord.Event // armed iff the range has no leader
			err    error
		)
		if toLeader {
			target, watch, err = c.leader(rangeID)
		} else if target = c.anyReplica(rangeID); target == "" {
			err = ErrUnavailable
		}
		if err != nil {
			// The range may no longer exist (stale layout after a split).
			c.refreshLayout()
		} else {
			var resp transport.Message
			resp, err = c.ep.Call(transport.Message{To: target, Kind: kind, Cohort: rangeID, Payload: payload})
			if err != nil {
				if strict && !transport.NeverLeft(err) {
					return zero, fmt.Errorf("%w: %v", ErrAmbiguous, err)
				}
			} else {
				res, derr := decode(resp.Payload)
				if derr != nil {
					return zero, derr
				}
				status, detail := res.outcome()
				if status == StatusOK {
					return res, nil
				}
				err = StatusError(status, detail)
				switch status {
				case StatusNotLeader, StatusUnavailable:
					// NotLeader: re-resolve. Unavailable: a mid-takeover
					// leader not serving yet. Neither took effect.
				case StatusWrongLayout:
					c.refreshLayout()
				case StatusAmbiguous:
					if strict {
						return res, err
					}
				default:
					return res, err
				}
			}
			if toLeader {
				c.forgetLeader(rangeID, target)
			}
		}

		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(routeDeadline)
		} else if !now.Before(deadline) {
			c.session().Unwatch(watch)
			return zero, err
		}
		t := time.NewTimer(backoff)
		select {
		case <-watch: // nil, so never ready, when a target was found
			backoff = minRetryBackoff
		case <-t.C:
			c.session().Unwatch(watch)
			backoff = min(2*backoff, retryBackoff)
		}
		t.Stop()
	}
}

// write routes a WriteOp to the range leader and returns the assigned
// versions.
func (c *Client) write(op WriteOp) ([]uint64, error) {
	if len(op.Row) > maxKeyLen {
		return nil, ErrKeyTooLong
	}
	for i := range op.Cols {
		if len(op.Cols[i].Col) > maxKeyLen {
			return nil, ErrKeyTooLong
		}
	}
	res, err := route(c, op.Row, MsgWrite, EncodeWriteOp(nil, op), true, decodeWriteResult)
	return res.Versions, err
}

// maxAsyncInFlight bounds a client's concurrent asynchronous writes so a
// large Batch pipelines without flooding the transport.
const maxAsyncInFlight = 128

// WriteFuture is the handle to an in-flight asynchronous write. Wait blocks
// until the write commits (or fails) and returns the versions assigned to
// its columns; it may be called multiple times and from any goroutine.
type WriteFuture struct {
	done     chan struct{}
	versions []uint64
	err      error
}

// Wait blocks for the write's outcome.
func (f *WriteFuture) Wait() ([]uint64, error) {
	<-f.done
	return f.versions, f.err
}

// writeAsync routes op to the range leader without blocking the caller,
// returning a future for the outcome. Each in-flight write occupies its own
// request slot, so a single client can keep the leader's proposal pipeline
// full (the batched replication path coalesces concurrently submitted
// writes into shared propose batches and log forces).
func (c *Client) writeAsync(op WriteOp) *WriteFuture {
	f := &WriteFuture{done: make(chan struct{})}
	c.asyncSem <- struct{}{}
	go func() {
		defer func() { <-c.asyncSem }()
		f.versions, f.err = c.write(op)
		close(f.done)
	}()
	return f
}

// PutAsync starts a put without waiting for it to commit; the returned
// future resolves to the assigned version. Submitting many writes before
// waiting pipelines them through the leader's batched replication path.
// Submission applies backpressure: once maxAsyncInFlight writes are
// outstanding, PutAsync blocks until a slot frees.
func (c *Client) PutAsync(row, col string, value []byte) *WriteFuture {
	return c.writeAsync(WriteOp{Row: row, Cols: []ColWrite{{Col: col, Value: value}}})
}

// DeleteAsync starts a delete without waiting for it to commit; it applies
// the same backpressure as PutAsync.
func (c *Client) DeleteAsync(row, col string) *WriteFuture {
	return c.writeAsync(WriteOp{Row: row, Cols: []ColWrite{{Col: col, Delete: true}}})
}

// Batch collects writes to independent rows and submits them as one
// pipelined burst. Each write remains its own single-operation transaction
// (the paper's API has no cross-row transactions, §3); the batch only
// overlaps their replication rather than running them lockstep.
type Batch struct {
	c   *Client
	ops []WriteOp
}

// NewBatch returns an empty write batch.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// Put adds a put to the batch.
func (b *Batch) Put(row, col string, value []byte) {
	b.ops = append(b.ops, WriteOp{Row: row, Cols: []ColWrite{{Col: col, Value: value}}})
}

// Delete adds a delete to the batch.
func (b *Batch) Delete(row, col string) {
	b.ops = append(b.ops, WriteOp{Row: row, Cols: []ColWrite{{Col: col, Delete: true}}})
}

// Len reports the number of writes queued in the batch.
func (b *Batch) Len() int { return len(b.ops) }

// Run submits every write concurrently and waits for them all, returning
// the version assigned to each write (in batch order) and the first error
// encountered. The batch is left empty for reuse.
func (b *Batch) Run() ([]uint64, error) {
	ops := b.ops
	b.ops = nil
	futures := make([]*WriteFuture, len(ops))
	for i, op := range ops {
		futures[i] = b.c.writeAsync(op)
	}
	versions := make([]uint64, len(ops))
	var firstErr error
	for i, f := range futures {
		vs, err := f.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if len(vs) > 0 {
			versions[i] = vs[0]
		}
	}
	return versions, firstErr
}

// Put inserts a column value into a row (§3) and returns the version
// assigned to it.
func (c *Client) Put(row, col string, value []byte) (uint64, error) {
	vs, err := c.write(WriteOp{Row: row, Cols: []ColWrite{{Col: col, Value: value}}})
	if err != nil {
		return 0, err
	}
	return vs[0], nil
}

// Delete removes a column from a row (§3).
func (c *Client) Delete(row, col string) error {
	_, err := c.write(WriteOp{Row: row, Cols: []ColWrite{{Col: col, Delete: true}}})
	return err
}

// ConditionalPut inserts a new value only if the column's current version
// equals version; otherwise ErrVersionMismatch is returned (§3). A version
// of 0 means "only if the column does not exist".
func (c *Client) ConditionalPut(row, col string, value []byte, version uint64) (uint64, error) {
	vs, err := c.write(WriteOp{Row: row, Cols: []ColWrite{{
		Col: col, Value: value, Cond: true, CondVersion: version,
	}}})
	if err != nil {
		return 0, err
	}
	return vs[0], nil
}

// ConditionalDelete removes the column only if its current version equals
// version (§3).
func (c *Client) ConditionalDelete(row, col string, version uint64) error {
	_, err := c.write(WriteOp{Row: row, Cols: []ColWrite{{
		Col: col, Delete: true, Cond: true, CondVersion: version,
	}}})
	return err
}

// Column is one column of a multi-column write.
type Column struct {
	Col   string
	Value []byte
}

// MultiPut atomically puts several columns of the same row in one
// single-operation transaction (§3: "the multi-column version of
// conditional put allows multiple columns of the same row to be
// conditionally put with one API call").
func (c *Client) MultiPut(row string, cols []Column) ([]uint64, error) {
	op := WriteOp{Row: row}
	for _, col := range cols {
		op.Cols = append(op.Cols, ColWrite{Col: col.Col, Value: col.Value})
	}
	return c.write(op)
}

// ConditionalMultiPut atomically puts several columns, each guarded by its
// expected current version.
func (c *Client) ConditionalMultiPut(row string, cols []Column, versions []uint64) ([]uint64, error) {
	if len(cols) != len(versions) {
		return nil, errors.New("core: cols and versions length mismatch")
	}
	op := WriteOp{Row: row}
	for i, col := range cols {
		op.Cols = append(op.Cols, ColWrite{
			Col: col.Col, Value: col.Value, Cond: true, CondVersion: versions[i],
		})
	}
	return c.write(op)
}

// Get reads a column value and its version (§3). consistent=true routes to
// the cohort leader and always returns the latest value; consistent=false
// (timeline consistency) reads any replica and may return a stale value in
// exchange for better performance.
func (c *Client) Get(row, col string, consistent bool) ([]byte, uint64, error) {
	if len(row) > maxKeyLen || len(col) > maxKeyLen {
		return nil, 0, ErrKeyTooLong
	}
	req := encodeGetReq(getReq{Row: row, Col: col, Consistent: consistent})
	res, err := route(c, row, MsgGet, req, consistent, decodeGetResp)
	if err != nil {
		return nil, res.Version, err // ErrNotFound carries the tombstone's version
	}
	return res.Value, res.Version, nil
}

// GetRow reads every live column of a row with the chosen consistency.
func (c *Client) GetRow(row string, consistent bool) ([]kv.Entry, error) {
	if len(row) > maxKeyLen {
		return nil, ErrKeyTooLong
	}
	req := encodeGetReq(getReq{Row: row, Consistent: consistent})
	res, err := route(c, row, MsgGetRow, req, consistent, decodeRowResp)
	if err != nil {
		return nil, err
	}
	return res.Entries, nil
}
