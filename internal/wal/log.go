package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Config controls a Log.
type Config struct {
	// Store supplies segment devices.
	Store SegmentStore
	// SegmentBytes is the roll threshold; when the current segment
	// exceeds it, the log rolls to a fresh segment. Zero means 64 MiB.
	SegmentBytes int64
	// GroupCommit enables batching of concurrent force requests into a
	// single device force (paper §5: "group commit [13] is also used to
	// improve logging performance"). Every node sets it.
	// It stays a field only because benchmark/probes.go names it in a
	// struct literal: deleting it, ForceTo's force-per-call branch and
	// TestLogNoGroupCommitForcesEach together needs an edit to benchmark/.
	GroupCommit bool
}

const defaultSegmentBytes = 64 << 20

// ErrClosed is returned by Append, AppendBatch, Force and ForceTo after
// Close.
var ErrClosed = errors.New("wal: log is closed")

// Log is a node's shared write-ahead log: a sequence of segments holding
// the interleaved records of every cohort the node belongs to (paper §4.1).
// It tracks per-cohort min/max LSNs per segment so that old segments can be
// dropped once captured by SSTables and so that catch-up can locate records
// (paper §6.1).
type Log struct {
	cfg Config

	mu      sync.Mutex
	segs    []*segment
	nextSeg uint64
	// truncated records, per cohort, the highest RecWrite LSN that was in
	// a dropped segment; catch-up requests reaching at or below it cannot
	// be served from the log (paper §6.1: serve from SSTables instead).
	truncated map[uint32]LSN
	// scanning counts Scans in progress. A scan reads its snapshot of segs
	// outside mu, so a segment dropped meanwhile stays open (unlinked but
	// readable) in retired until the last scan out closes it.
	scanning int
	retired  []Device
	// closed is set by Close: a late Append must not roll and open a
	// segment nobody will close.
	closed bool

	// Group commit state. appendOff/durableOff are logical offsets over
	// the whole log (monotonic across segments).
	gc         sync.Mutex
	gcCond     *sync.Cond
	appendOff  int64
	durableOff int64
	forcing    bool
	forceErr   error

	appends int64
	forces  int64
}

// segment is one physical piece of the log.
type segment struct {
	id    uint64
	dev   Device
	start int64 // logical offset of the segment's first byte
	size  int64 // bytes appended to this segment
	// Per-cohort LSN ranges of RecWrite records in the segment, used for
	// truncation decisions and SSTable-based catch-up.
	minLSN map[uint32]LSN
	maxLSN map[uint32]LSN
}

func (s *segment) note(rec *Record) {
	if rec.Type != RecWrite {
		return
	}
	if cur, ok := s.minLSN[rec.Cohort]; !ok || rec.LSN < cur {
		s.minLSN[rec.Cohort] = rec.LSN
	}
	if cur, ok := s.maxLSN[rec.Cohort]; !ok || rec.LSN > cur {
		s.maxLSN[rec.Cohort] = rec.LSN
	}
}

// Open opens (or creates) the log held by cfg.Store, scanning existing
// segments to rebuild in-memory bookkeeping. A torn record at the tail of
// the last segment — bytes appended but not forced before a crash — is
// detected by CRC and discarded, trimming the log to its durable prefix.
func Open(cfg Config) (*Log, error) {
	if cfg.Store == nil {
		return nil, errors.New("wal: Config.Store is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	l := &Log{cfg: cfg, truncated: make(map[uint32]LSN)}
	l.gcCond = sync.NewCond(&l.gc)

	ids, err := cfg.Store.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	var logical int64
	for _, id := range ids {
		dev, err := cfg.Store.Open(id)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %d: %w", id, err)
		}
		seg := &segment{
			id: id, dev: dev, start: logical,
			minLSN: make(map[uint32]LSN), maxLSN: make(map[uint32]LSN),
		}
		valid, err := l.scanSegment(seg, func(rec Record, _ int64) error {
			seg.note(&rec)
			return nil
		})
		if err != nil {
			return nil, err
		}
		seg.size = valid
		logical += valid
		l.segs = append(l.segs, seg)
		if id >= l.nextSeg {
			l.nextSeg = id + 1
		}
	}
	if len(l.segs) == 0 {
		//lint:ignore spinnaker/lockcheck Open constructs l before any other goroutine can see it; the lock protocol starts when Open returns
		if err := l.rollLocked(); err != nil {
			return nil, err
		}
	}
	l.appendOff = logical
	l.durableOff = logical
	return l, nil
}

// rollLocked creates a fresh segment; callers hold l.mu (or are in Open).
//
//spinnaker:locked(mu)
func (l *Log) rollLocked() error {
	dev, err := l.cfg.Store.Create(l.nextSeg)
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", l.nextSeg, err)
	}
	var start int64
	if n := len(l.segs); n > 0 {
		last := l.segs[n-1]
		start = last.start + last.size
		// Rolls are rare; force the retiring segment so Force only
		// ever needs to touch the current one.
		if err := last.dev.Force(); err != nil {
			return fmt.Errorf("wal: force retiring segment: %w", err)
		}
	}
	l.segs = append(l.segs, &segment{
		id: l.nextSeg, dev: dev, start: start,
		minLSN: make(map[uint32]LSN), maxLSN: make(map[uint32]LSN),
	})
	l.nextSeg++
	return nil
}

// encodeScratch pools framing buffers for Append/AppendBatch. Devices copy
// (MemDevice) or synchronously write (FileDevice) the bytes they are handed
// and never retain the slice, so a buffer is reusable the moment dev.Append
// returns — the hot path encodes with zero steady-state allocations.
var encodeScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// Append buffers rec at the end of the log without forcing it; used for
// non-forced writes such as RecLastCommitted (paper §5). It returns the
// logical end offset of the record, which can be passed to ForceTo.
//
//spinnaker:hotpath
func (l *Log) Append(rec Record) (int64, error) {
	recs := [1]Record{rec} // a group of one, on the stack
	return l.AppendBatch(recs[:])
}

// AppendBatch appends recs as one group frame: one lock acquisition, one
// frame header, one checksum, one device append for the whole batch (the
// per-MsgProposeBatch follower path). It returns the logical end offset of
// the batch, which can be passed to ForceTo for a single force. An empty
// batch appends nothing.
//
//spinnaker:hotpath
func (l *Log) AppendBatch(recs []Record) (int64, error) {
	if len(recs) == 0 {
		l.gc.Lock()
		end := l.appendOff
		l.gc.Unlock()
		return end, nil
	}
	scratch := encodeScratch.Get().(*[]byte)
	buf := EncodeGroup((*scratch)[:0], recs)
	end, err := l.appendEncoded(buf, recs)
	*scratch = buf[:0]
	encodeScratch.Put(scratch)
	return end, err
}

// appendEncoded appends one already-framed buffer carrying recs to the tail
// segment, rolling first if the segment is over threshold.
//
//spinnaker:noretain
//spinnaker:hotpath
func (l *Log) appendEncoded(buf []byte, recs []Record) (int64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	cur := l.segs[len(l.segs)-1]
	if cur.size >= l.cfg.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
		cur = l.segs[len(l.segs)-1]
	}
	if _, err := cur.dev.Append(buf); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	cur.size += int64(len(buf))
	for i := range recs {
		cur.note(&recs[i])
	}
	l.appends += int64(len(recs))
	end := cur.start + cur.size
	l.mu.Unlock()

	l.gc.Lock()
	if end > l.appendOff {
		l.appendOff = end
	}
	l.gc.Unlock()
	return end, nil
}

// AppendForce appends rec and forces the log through it. With GroupCommit
// enabled, concurrent callers share a single device force.
func (l *Log) AppendForce(rec Record) error {
	end, err := l.Append(rec)
	if err != nil {
		return err
	}
	return l.ForceTo(end)
}

// Force makes every appended byte durable.
func (l *Log) Force() error {
	l.gc.Lock()
	target := l.appendOff
	l.gc.Unlock()
	return l.ForceTo(target)
}

// ForceTo makes all bytes up to the logical offset target durable.
func (l *Log) ForceTo(target int64) error {
	if !l.cfg.GroupCommit {
		err := l.forceTail()
		l.gc.Lock()
		if err == nil && l.appendOff > l.durableOff {
			l.durableOff = l.appendOff
		}
		l.gc.Unlock()
		return err
	}

	l.gc.Lock()
	defer l.gc.Unlock()
	for l.durableOff < target {
		if l.forcing {
			// Another goroutine is at the device; its force will
			// cover our bytes if they were appended before it
			// started, otherwise we loop and force ourselves.
			l.gcCond.Wait()
			if l.forceErr != nil {
				return l.forceErr
			}
			continue
		}
		l.forcing = true
		snapshot := l.appendOff
		l.gc.Unlock()

		err := l.forceTail()

		l.gc.Lock()
		l.forcing = false
		if err != nil {
			l.forceErr = err
			l.gcCond.Broadcast()
			return err
		}
		if snapshot > l.durableOff {
			l.durableOff = snapshot
		}
		l.gcCond.Broadcast()
	}
	return l.forceErr
}

// forceTail forces the current segment's device (rolls force the segment
// they retire), or returns ErrClosed after Close.
func (l *Log) forceTail() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	dev := l.segs[len(l.segs)-1].dev
	l.mu.Unlock()
	err := dev.Force()
	l.mu.Lock()
	l.forces++
	l.mu.Unlock()
	return err
}

// Stats reports append and force counts (node metrics).
func (l *Log) Stats() (appends, forces int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.forces
}

// scanSegment decodes records from the start of a segment, invoking fn for
// each (group frames yield their records in append order). It returns the
// number of valid bytes. Decoding stops quietly at the first corrupt frame
// (the torn tail); a torn group frame is dropped whole — its single CRC
// cannot vouch for any prefix of the batch.
func (l *Log) scanSegment(seg *segment, fn func(rec Record, off int64) error) (int64, error) {
	size := seg.dev.Size()
	if size == 0 {
		return 0, nil
	}
	buf := make([]byte, size)
	n, err := seg.dev.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("wal: read segment %d: %w", seg.id, err)
	}
	buf = buf[:n]
	var off int64
	for off < int64(len(buf)) {
		consumed, err := DecodeFrame(buf[off:], func(rec Record) error {
			return fn(rec, seg.start+off)
		})
		if errors.Is(err, ErrCorruptRecord) {
			break // torn tail
		}
		if err != nil {
			return off, err
		}
		off += int64(consumed)
	}
	return off, nil
}

// Scan replays every record in the log in append order. Recovery uses it to
// rebuild memtables and discover each cohort's f.cmt and f.lst (paper §6.1).
// In practice the 3 cohorts on a node are recovered in parallel with one
// shared scan of the log — which is exactly what a single Scan provides.
func (l *Log) Scan(fn func(rec Record) error) error {
	l.mu.Lock()
	segs := append([]*segment(nil), l.segs...)
	l.scanning++
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		if l.scanning--; l.scanning == 0 {
			for _, dev := range l.retired {
				_ = dev.Close() // unlinked already; nothing left to lose
			}
			l.retired = nil
		}
		l.mu.Unlock()
	}()
	for _, seg := range segs {
		if _, err := l.scanSegment(seg, func(rec Record, _ int64) error {
			return fn(rec)
		}); err != nil {
			return err
		}
	}
	return nil
}

// ScanCohort replays only the records of one cohort.
func (l *Log) ScanCohort(cohort uint32, fn func(rec Record) error) error {
	return l.Scan(func(rec Record) error {
		if rec.Cohort != cohort {
			return nil
		}
		return fn(rec)
	})
}

// CohortWritesIn returns the RecWrite records of cohort with LSN in
// (after, through], in LSN order. The leader uses it to serve follower
// catch-up from its log (paper §6.1); a nil slice with ok=false means part
// of the range has been truncated and catch-up must be served from SSTables
// tagged with min/max LSNs instead.
func (l *Log) CohortWritesIn(cohort uint32, after, through LSN) (recs []Record, ok bool, err error) {
	l.mu.Lock()
	// If a dropped segment held records the request needs, the log alone
	// cannot prove completeness; segment drop only happens after SSTable
	// capture, so the caller falls back to shipping SSTables.
	incomplete := l.truncated[cohort] > after
	l.mu.Unlock()

	err = l.ScanCohort(cohort, func(rec Record) error {
		if rec.Type == RecWrite && rec.LSN > after && rec.LSN <= through {
			recs = append(recs, rec)
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return recs, !incomplete, nil
}

// Truncated returns the highest RecWrite LSN of cohort that has been
// dropped with a log segment. Catch-up requests with f.cmt at or below it
// cannot be served completely from the log; the leader ships SSTables
// instead (paper §6.1).
func (l *Log) Truncated(cohort uint32) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated[cohort]
}

// DropCapturedSegments removes old segments whose every cohort's records
// are at or below that cohort's captured LSN (all captured by SSTables).
// The current segment is never dropped. It returns the ids removed.
func (l *Log) DropCapturedSegments(captured map[uint32]LSN) ([]uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var dropped []uint64
	for len(l.segs) > 1 {
		seg := l.segs[0]
		removable := true
		for cohort, maxLSN := range seg.maxLSN {
			if cap, ok := captured[cohort]; !ok || maxLSN > cap {
				removable = false
				break
			}
		}
		if !removable {
			break
		}
		if err := l.cfg.Store.Remove(seg.id); err != nil {
			return dropped, fmt.Errorf("wal: remove segment %d: %w", seg.id, err)
		}
		// Release the descriptor too, or every truncation leaks one.
		if l.scanning == 0 {
			_ = seg.dev.Close() // unlinked already; nothing left to lose
		} else {
			l.retired = append(l.retired, seg.dev)
		}
		for cohort, maxLSN := range seg.maxLSN {
			if maxLSN > l.truncated[cohort] {
				l.truncated[cohort] = maxLSN
			}
		}
		dropped = append(dropped, seg.id)
		l.segs[0] = nil // or the backing array keeps the dropped segment's bytes
		l.segs = l.segs[1:]
	}
	return dropped, nil
}

// Bytes returns the size of the live segments: the log bytes truncation
// has not yet reclaimed.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, seg := range l.segs {
		n += seg.size
	}
	return n
}

// Segments returns the number of live segments.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close forces and releases all segments, whether or not the force succeeds
// (a failed device still holds a descriptor). Closing twice is harmless.
func (l *Log) Close() error {
	err := l.Force()
	if errors.Is(err, ErrDeviceFailed) {
		err = nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for _, dev := range l.retired {
		_ = dev.Close()
	}
	l.retired = nil
	for _, seg := range l.segs {
		if cerr := seg.dev.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	l.mu.Unlock()
	// A ForceTo with nothing left to force never reaches forceTail; the
	// sticky force error makes it report the closed log all the same.
	l.gc.Lock()
	if l.forceErr == nil {
		l.forceErr = ErrClosed
	}
	l.gc.Unlock()
	return err
}
