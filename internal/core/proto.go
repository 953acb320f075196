// Package core implements the Spinnaker node: the paper's primary
// contribution. It ties the shared write-ahead log, the per-range LSM
// storage engines, the coordination service, and the messaging layer into
// the Paxos-derived replication protocol of §5, the recovery procedures of
// §6, and the leader election protocol of §7.
//
// Two ways this implementation goes beyond the paper's figures as drawn:
// the write path is a batched, pipelined proposal stream (leaders keep one
// batch outstanding per range and coalesce the writes sequenced meanwhile
// into the next MsgProposeBatch per peer, and followers reply with one
// cumulative acked-through LSN, where Figure 4 draws one propose and one
// ack per write), and cluster membership is live: nodes follow the
// versioned layout published through the coordination service, creating,
// retiring, and re-membering cohort replicas as ranges split and move
// (elastic scale-out, §4's placement made dynamic).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

// Message kinds exchanged between nodes and clients.
const (
	// Client operations (§3). Each executes as a single-operation
	// transaction.
	MsgGet uint8 = 1 + iota
	MsgGetRow
	MsgWrite // put / delete / conditional put / conditional delete / multi-column
	// Retired kinds; nodes ignore them.
	MsgPropose
	MsgAck
	// Replication protocol (§5, Figure 4): the periodic commit message;
	// propose and ack are MsgProposeBatch and MsgAckBatch below.
	MsgCommit
	// Recovery (§6).
	MsgStateReq    // new leader asks follower for its f.cmt (Fig 6 line 4)
	MsgTakeover    // leader → follower: catch up to l.cmt (Fig 6 lines 5-6)
	MsgCatchupReq  // recovering follower → leader: advertise f.cmt (§6.1)
	MsgCatchupResp // leader → follower: committed writes after f.cmt
	// The write path's propose and ack: one propose message per batch of
	// one or more sequenced writes, one cumulative ack per message.
	MsgProposeBatch
	MsgAckBatch // payload: AckedThrough LSN (cumulative)
	// Bulk catch-up (§6.1, SSTable-based): when the leader's log has been
	// truncated past the follower's f.cmt, the MsgCatchupReq reply comes
	// back as a snapshot manifest instead of entries, and the follower
	// fetches the listed table blobs chunk by chunk.
	MsgSnapManifest  // reply to MsgCatchupReq: table list + Merkle digests
	MsgTableChunkReq // follower → leader: one chunk of one manifest table
	MsgTableChunk    // leader → follower: the chunk bytes + CRC
)

// Status codes carried in responses.
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusNotLeader
	StatusVersionMismatch
	StatusUnavailable
	StatusBadRequest
	// StatusAmbiguous reports a write that failed AFTER being sequenced
	// into the replication stream: it sits in the leader's durable log
	// and commit queue and may yet commit (quorum timeout, leadership
	// lost mid-replication). Unlike StatusUnavailable — which is only
	// ever returned before sequencing and so guarantees the write took
	// no effect — a blind retry after StatusAmbiguous can execute the
	// write twice.
	StatusAmbiguous
	// StatusWrongLayout reports that the contacted node does not serve
	// the requested key under the current cluster layout: the client
	// routed with a stale layout version (a range was split or moved).
	// The operation took no effect; the client should refresh the layout
	// from the coordination service and re-route.
	StatusWrongLayout
)

// StatusError converts a non-OK status into an error.
func StatusError(status uint8, detail string) error {
	switch status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusNotLeader:
		return fmt.Errorf("%w: %s", ErrNotLeader, detail)
	case StatusVersionMismatch:
		return ErrVersionMismatch
	case StatusUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, detail)
	case StatusAmbiguous:
		return fmt.Errorf("%w: %s", ErrAmbiguous, detail)
	case StatusWrongLayout:
		return fmt.Errorf("%w: %s", ErrWrongLayout, detail)
	default:
		return fmt.Errorf("core: %s", detail)
	}
}

// Errors surfaced through the client API.
var (
	// ErrNotFound reports a missing row/column.
	ErrNotFound = fmt.Errorf("core: not found")
	// ErrNotLeader reports that the contacted node does not lead the
	// cohort; the client should re-resolve the leader.
	ErrNotLeader = fmt.Errorf("core: not the cohort leader")
	// ErrVersionMismatch is the conditional put/delete failure (§3): the
	// column's current version differs from the one supplied.
	ErrVersionMismatch = fmt.Errorf("core: version mismatch")
	// ErrUnavailable reports a cohort closed for writes (no leader, or
	// leader takeover in progress). The operation took no effect.
	ErrUnavailable = fmt.Errorf("core: cohort unavailable")
	// ErrAmbiguous reports a write whose outcome is unknown: it was
	// sequenced but its commit was never confirmed, and it may or may
	// not take effect. Returned by strict-write clients instead of
	// retrying (a retry could apply the write twice).
	ErrAmbiguous = fmt.Errorf("core: write outcome ambiguous")
	// ErrWrongLayout reports routing with a stale cluster layout; the
	// client refreshes the layout and retries, so it only surfaces when
	// the refreshed layout still cannot route the operation.
	ErrWrongLayout = fmt.Errorf("core: stale cluster layout")
	// ErrKeyTooLong rejects a row key or column name longer than 65 535
	// bytes before anything is sent: the wire and storage formats carry
	// key lengths as 16-bit integers.
	ErrKeyTooLong = fmt.Errorf("core: row key or column name exceeds %d bytes", maxKeyLen)
)

// maxKeyLen is the longest row key or column name the formats can carry.
const maxKeyLen = math.MaxUint16

// ColWrite is one column mutation within a WriteOp.
type ColWrite struct {
	Col    string
	Value  []byte
	Delete bool
	// CondVersion is the version the column must currently have for a
	// conditional put/delete (checked by the leader, §5.1); ignored
	// unless Cond is set.
	Cond        bool
	CondVersion uint64
	// Version is assigned by the leader when the write is sequenced and
	// is therefore identical on every replica.
	Version uint64
}

// WriteOp is a single-operation transaction mutating one or more columns of
// one row (§3: multi-column variants mutate several columns of the same row
// in one call). It is the payload of both log records and propose messages.
type WriteOp struct {
	Row  string
	Cols []ColWrite
}

// WriteOpEncodedSize returns the number of bytes EncodeWriteOp will produce.
//
//spinnaker:hotpath
func WriteOpEncodedSize(op WriteOp) int {
	n := 2 + len(op.Row) + 2
	for i := range op.Cols {
		n += 2 + len(op.Cols[i].Col) + 1 + 8 + 8 + 4 + len(op.Cols[i].Value)
	}
	return n
}

// Static decode errors for the replication hot path: the decoders below are
// //spinnaker:hotpath, which forbids fmt.* (an Errorf per malformed message
// allocates and formats on a path that normally never fails). A truncated
// payload is a framing bug, not user input — the offset detail the old
// dynamic messages carried is recoverable in a debugger, and the sentinel
// form makes the errors comparable with errors.Is.
var (
	errWriteOpTruncated      = errors.New("core: write op truncated")
	errProposeBatchTruncated = errors.New("core: propose batch truncated")
	errProposeBatchCount     = errors.New("core: propose batch count exceeds payload")
	errAckTruncated          = errors.New("core: ack payload truncated")
	errCommitTruncated       = errors.New("core: commit payload truncated")
	errGetReqTruncated       = errors.New("core: get req truncated")
	errGetRespTruncated      = errors.New("core: get resp truncated")
)

// growBuf extends dst by n bytes with at most one allocation and returns the
// extended slice together with the n-byte window just added (the core-side
// twin of the WAL's framing helper).
//
//spinnaker:hotpath
func growBuf(dst []byte, n int) ([]byte, []byte) {
	l := len(dst)
	if cap(dst)-l < n {
		bigger := make([]byte, l, l+n)
		copy(bigger, dst)
		dst = bigger
	}
	dst = dst[:l+n]
	return dst, dst[l : l+n]
}

// EncodeWriteOp serializes op, appending to dst. The destination grows at
// most once (pre-size with WriteOpEncodedSize for zero growth).
//
//spinnaker:hotpath
func EncodeWriteOp(dst []byte, op WriteOp) []byte {
	dst, b := growBuf(dst, WriteOpEncodedSize(op))
	binary.LittleEndian.PutUint16(b[0:2], uint16(len(op.Row)))
	off := 2 + copy(b[2:], op.Row)
	binary.LittleEndian.PutUint16(b[off:], uint16(len(op.Cols)))
	off += 2
	for i := range op.Cols {
		c := &op.Cols[i]
		binary.LittleEndian.PutUint16(b[off:], uint16(len(c.Col)))
		off += 2
		off += copy(b[off:], c.Col)
		var flags byte
		if c.Delete {
			flags |= 1
		}
		if c.Cond {
			flags |= 2
		}
		b[off] = flags
		off++
		binary.LittleEndian.PutUint64(b[off:], c.CondVersion)
		off += 8
		binary.LittleEndian.PutUint64(b[off:], c.Version)
		off += 8
		binary.LittleEndian.PutUint32(b[off:], uint32(len(c.Value)))
		off += 4
		off += copy(b[off:], c.Value)
	}
	return dst
}

// DecodeWriteOp parses a WriteOp, returning it and the bytes consumed.
// Values are copied out of b; the result does not alias the input.
func DecodeWriteOp(b []byte) (WriteOp, int, error) {
	return decodeWriteOp(b, true)
}

// decodeWriteOpShared is DecodeWriteOp without the value copies: the result's
// Values alias b. The replication hot path uses it where the message payload
// is immutable once received (nothing writes to a payload after encode), so
// the bytes can flow into the commit queue and memtable without a per-column
// allocation.
//
//spinnaker:aliases
//spinnaker:hotpath
func decodeWriteOpShared(b []byte) (WriteOp, int, error) {
	return decodeWriteOp(b, false)
}

//spinnaker:hotpath
func decodeWriteOp(b []byte, copyValues bool) (WriteOp, int, error) {
	var op WriteOp
	off := 0
	need := func(n int) error {
		if len(b)-off < n {
			return errWriteOpTruncated
		}
		return nil
	}
	if err := need(2); err != nil {
		return op, 0, err
	}
	rl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if err := need(rl); err != nil {
		return op, 0, err
	}
	op.Row = string(b[off : off+rl])
	off += rl
	if err := need(2); err != nil {
		return op, 0, err
	}
	nCols := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if nCols > 0 {
		op.Cols = make([]ColWrite, 0, nCols)
	}
	for i := 0; i < nCols; i++ {
		var c ColWrite
		if err := need(2); err != nil {
			return op, 0, err
		}
		cl := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if err := need(cl + 1 + 8 + 8 + 4); err != nil {
			return op, 0, err
		}
		c.Col = string(b[off : off+cl])
		off += cl
		flags := b[off]
		off++
		c.Delete = flags&1 != 0
		c.Cond = flags&2 != 0
		c.CondVersion = binary.LittleEndian.Uint64(b[off:])
		off += 8
		c.Version = binary.LittleEndian.Uint64(b[off:])
		off += 8
		vl := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if err := need(vl); err != nil {
			return op, 0, err
		}
		if vl > 0 {
			if copyValues {
				c.Value = append([]byte(nil), b[off:off+vl]...)
			} else {
				c.Value = b[off : off+vl : off+vl]
			}
		}
		off += vl
		op.Cols = append(op.Cols, c)
	}
	return op, off, nil
}

// entrySink receives a committed write's cells: the storage engine, or a
// catch-up reply being assembled (entryList).
type entrySink interface{ Apply(kv.Entry) }

// applyOp hands each column of op, sequenced at lsn, to dst as a storage
// entry. It is the one conversion from a committed write to cells: the
// leader's commit, a follower's apply, local recovery and catch-up all go
// through it.
//
//spinnaker:hotpath
func applyOp(dst entrySink, op WriteOp, lsn wal.LSN) {
	for i := range op.Cols {
		c := &op.Cols[i]
		dst.Apply(kv.Entry{
			Key:  kv.Key{Row: op.Row, Col: c.Col},
			Cell: kv.Cell{Value: c.Value, Version: c.Version, LSN: lsn, Deleted: c.Delete},
		})
	}
}

// entryList is an entrySink that collects the entries.
type entryList []kv.Entry

// Apply implements entrySink.
func (l *entryList) Apply(e kv.Entry) { *l = append(*l, e) }

// proposeRec is one sequenced write inside a propose message: the LSN plus
// the op, Fig 4's per-write protocol state. Raw, when non-nil, is Op's
// encoding: the leader fills it when sequencing (the same bytes become the
// WAL record payload) so batch encoding copies instead of re-encoding, and
// decode fills it by slicing the message payload so the follower's WAL
// append never re-encodes either. Raw and Op must describe the same write.
type proposeRec struct {
	LSN wal.LSN
	Op  WriteOp
	Raw []byte
}

// Minimum encoded sizes, used to validate decoded element counts against
// the payload length before allocating.
const (
	// kv.EncodeEntry: two u16 key lengths + version + lsn + timestamp +
	// deleted byte + u32 value length.
	minEntryEncodedSize = 2 + 2 + 8 + 8 + 8 + 1 + 4
	// proposeRec: u64 LSN + an empty WriteOp (u16 row length + u16 count).
	minProposeRecEncodedSize = 8 + 2 + 2
)

// proposeBatchPayload is the body of MsgProposeBatch: the commit piggyback
// (App. D.1: the follower may apply everything at or below CommittedThrough)
// followed by the batch's records in ascending LSN order. In steady state the records are the contiguous run of writes the
// leader sequenced since the previous batch; retransmissions may carry
// non-contiguous records, so every record carries its full LSN.
type proposeBatchPayload struct {
	CommittedThrough wal.LSN
	Recs             []proposeRec
}

//spinnaker:hotpath
func encodeProposeBatch(p proposeBatchPayload) []byte {
	size := 12
	for i := range p.Recs {
		if raw := p.Recs[i].Raw; raw != nil {
			size += 8 + len(raw)
		} else {
			size += 8 + WriteOpEncodedSize(p.Recs[i].Op)
		}
	}
	// One exact-size allocation. The buffer is intentionally NOT pooled:
	// the transport holds the payload asynchronously (one send per peer,
	// and the in-process transport hands the same slice to every receiver),
	// so its lifetime is unbounded from the encoder's point of view.
	buf := make([]byte, 12, size)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(p.CommittedThrough))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(p.Recs)))
	var s [8]byte
	for i := range p.Recs {
		rec := &p.Recs[i]
		binary.LittleEndian.PutUint64(s[:], uint64(rec.LSN))
		buf = append(buf, s[:]...)
		if rec.Raw != nil {
			buf = append(buf, rec.Raw...)
		} else {
			buf = EncodeWriteOp(buf, rec.Op)
		}
	}
	return buf
}

// decodeProposeBatch parses a batched propose without copying: each record's
// Op shares the payload's value bytes and its Raw slices the payload's
// encoded-op bytes (see proposeRec). Payloads are immutable after encode, so
// the follower appends Raw to its WAL and applies Op to its memtable with no
// per-record re-encode or copy.
//
//spinnaker:aliases
//spinnaker:hotpath
func decodeProposeBatch(b []byte) (proposeBatchPayload, error) {
	var p proposeBatchPayload
	if len(b) < 12 {
		return p, errProposeBatchTruncated
	}
	p.CommittedThrough = wal.LSN(binary.LittleEndian.Uint64(b[0:8]))
	count := int(binary.LittleEndian.Uint32(b[8:12]))
	off := 12
	// A record is at least its LSN plus an empty WriteOp; validate the
	// count against the payload before allocating (a forged count must not
	// drive a huge make — the decodeManifest hardening, applied here).
	if count > (len(b)-off)/minProposeRecEncodedSize {
		return p, errProposeBatchCount
	}
	if count > 0 {
		p.Recs = make([]proposeRec, 0, count)
	}
	for i := 0; i < count; i++ {
		if len(b)-off < 8 {
			return p, errProposeBatchTruncated
		}
		lsn := wal.LSN(binary.LittleEndian.Uint64(b[off:]))
		off += 8
		op, n, err := decodeWriteOpShared(b[off:])
		if err != nil {
			return p, err
		}
		p.Recs = append(p.Recs, proposeRec{LSN: lsn, Op: op, Raw: b[off : off+n : off+n]})
		off += n
	}
	return p, nil
}

// ackPayload is the body of MsgAckBatch: the cumulative acked-through
// watermark, plus the follower's durable tombstone-GC floor — its storage checkpoint, below
// which every write is captured in SSTables and survives any crash. The
// leader takes the minimum floor across cohort members as the tombstone-GC
// watermark: compaction may only drop tombstones at or below it, because a
// member can never advertise a catch-up f.cmt below its own floor (local
// recovery raises f.cmt to the checkpoint), so EntriesSince stays complete.
//
//spinnaker:hotpath
func encodeAck(lsn, floor wal.LSN) []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(lsn))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(floor))
	return buf[:]
}

//spinnaker:hotpath
func decodeAck(b []byte) (lsn, floor wal.LSN, err error) {
	if len(b) < 8 {
		return 0, 0, errAckTruncated
	}
	lsn = wal.LSN(binary.LittleEndian.Uint64(b[0:8]))
	if len(b) >= 16 {
		floor = wal.LSN(binary.LittleEndian.Uint64(b[8:16]))
	}
	return lsn, floor, nil
}

// commitMsgPayload is the body of MsgCommit: the commit LSN (§5) plus the
// leader's cohort tombstone-GC watermark, which followers adopt to gate
// their own compactions (every replica compacts its own engine; any of
// them may later lead and serve SSTable-based catch-up from it).
//
//spinnaker:hotpath
func encodeCommitMsg(cmt, gc wal.LSN) []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(cmt))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(gc))
	return buf[:]
}

//spinnaker:hotpath
func decodeCommitMsg(b []byte) (cmt, gc wal.LSN, err error) {
	if len(b) < 8 {
		return 0, 0, errCommitTruncated
	}
	cmt = wal.LSN(binary.LittleEndian.Uint64(b[0:8]))
	if len(b) >= 16 {
		gc = wal.LSN(binary.LittleEndian.Uint64(b[8:16]))
	}
	return cmt, gc, nil
}

func encodeLSN(l wal.LSN) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(l))
	return buf[:]
}

func decodeLSN(b []byte) (wal.LSN, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("core: LSN payload truncated")
	}
	return wal.LSN(binary.LittleEndian.Uint64(b)), nil
}

func encodeLSNs(ls []wal.LSN) []byte {
	buf := make([]byte, 4+8*len(ls))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ls)))
	for i, l := range ls {
		binary.LittleEndian.PutUint64(buf[4+8*i:], uint64(l))
	}
	return buf
}

func decodeLSNs(b []byte) ([]wal.LSN, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("core: LSN list truncated")
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	if len(b) < 4+8*n {
		return nil, 0, fmt.Errorf("core: LSN list truncated: want %d", n)
	}
	out := make([]wal.LSN, n)
	for i := range out {
		out[i] = wal.LSN(binary.LittleEndian.Uint64(b[4+8*i:]))
	}
	return out, 4 + 8*n, nil
}

// catchupReq is the recovering follower's advertisement (§6.1): its last
// committed LSN plus the LSNs of its ambiguous log suffix (f.cmt, f.lst],
// which the leader intersects with its own log so the follower can
// logically truncate the rest (§6.1.1).
//
// The split-pull variant (SplitPull set) is sent by a replica of a freshly
// split range to the leader of the range it was split from: the origin
// leader replies with its committed state restricted to [FilterLow,
// FilterHigh) — the moved sub-range — once it has adopted the shrunk
// bounds and drained its in-flight writes to those rows.
type catchupReq struct {
	Cmt        wal.LSN
	Ambiguous  []wal.LSN
	SplitPull  bool
	FilterLow  string
	FilterHigh string
	// NoSnap forces the entry-served path even when the leader's log is
	// truncated past Cmt: after a snapshot round the follower's next
	// request covers only (snapCmt, l.cmt], which the engine serves as
	// entries, and the flag keeps a laggard from looping on manifests.
	// It also backs the log-replay ablation (DisableSnapshotCatchup).
	NoSnap bool
	// Empty declares the follower holds no data at all (fresh join, or a
	// disk-loss rejoin after Wipe). The leader then skips building the
	// anti-entropy digest — with nothing local to compare, every leaf
	// would differ and every offered table ships regardless.
	Empty bool
}

func encodeCatchupReq(r catchupReq) []byte {
	buf := append(encodeLSN(r.Cmt), encodeLSNs(r.Ambiguous)...)
	if r.SplitPull {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	var s [2]byte
	binary.LittleEndian.PutUint16(s[:], uint16(len(r.FilterLow)))
	buf = append(buf, s[:]...)
	buf = append(buf, r.FilterLow...)
	binary.LittleEndian.PutUint16(s[:], uint16(len(r.FilterHigh)))
	buf = append(buf, s[:]...)
	buf = append(buf, r.FilterHigh...)
	// Trailing flags byte (decoders tolerate its absence for req payloads
	// encoded before bulk catch-up existed).
	var flags byte
	if r.NoSnap {
		flags |= 1
	}
	if r.Empty {
		flags |= 2
	}
	buf = append(buf, flags)
	return buf
}

func decodeCatchupReq(b []byte) (catchupReq, error) {
	var r catchupReq
	var err error
	if r.Cmt, err = decodeLSN(b); err != nil {
		return r, err
	}
	lsns, n, err := decodeLSNs(b[8:])
	if err != nil {
		return r, err
	}
	r.Ambiguous = lsns
	off := 8 + n
	if len(b)-off < 1+2 {
		return r, fmt.Errorf("core: catchup req flags truncated")
	}
	r.SplitPull = b[off] == 1
	off++
	ll := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b)-off < ll+2 {
		return r, fmt.Errorf("core: catchup req filter truncated")
	}
	r.FilterLow = string(b[off : off+ll])
	off += ll
	hl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b)-off < hl {
		return r, fmt.Errorf("core: catchup req filter truncated")
	}
	r.FilterHigh = string(b[off : off+hl])
	off += hl
	if len(b)-off >= 1 {
		r.NoSnap = b[off]&1 != 0
		r.Empty = b[off]&2 != 0
	}
	return r, nil
}

// keyInRange reports whether row falls in [low, high); high == "" means the
// top of the key space.
func keyInRange(row, low, high string) bool {
	return row >= low && (high == "" || row < high)
}

// catchupResp carries the committed state the follower is missing. Entries
// may come from the leader's log or, when the log has rolled over, from
// SSTables located by their LSN tags (§6.1). Present lists which of the
// follower's ambiguous LSNs exist in the leader's history; the others are
// logically truncated.
type catchupResp struct {
	Status  uint8
	Cmt     wal.LSN
	Present []wal.LSN
	Entries []kv.Entry
}

func encodeCatchupResp(r catchupResp) []byte {
	buf := []byte{r.Status}
	buf = append(buf, encodeLSN(r.Cmt)...)
	buf = append(buf, encodeLSNs(r.Present)...)
	var s [4]byte
	binary.LittleEndian.PutUint32(s[:], uint32(len(r.Entries)))
	buf = append(buf, s[:]...)
	for _, e := range r.Entries {
		buf = kv.EncodeEntry(buf, e)
	}
	return buf
}

func decodeCatchupResp(b []byte) (catchupResp, error) {
	var r catchupResp
	if len(b) < 1+8 {
		return r, fmt.Errorf("core: catchup resp truncated")
	}
	r.Status = b[0]
	var err error
	if r.Cmt, err = decodeLSN(b[1:]); err != nil {
		return r, err
	}
	off := 9
	present, n, err := decodeLSNs(b[off:])
	if err != nil {
		return r, err
	}
	r.Present = present
	off += n
	if len(b)-off < 4 {
		return r, fmt.Errorf("core: catchup resp entry count truncated")
	}
	count := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if count > (len(b)-off)/minEntryEncodedSize {
		return r, fmt.Errorf("core: catchup resp count %d exceeds %d payload bytes", count, len(b)-off)
	}
	if count > 0 {
		r.Entries = make([]kv.Entry, 0, count)
	}
	for i := 0; i < count; i++ {
		e, n, err := kv.DecodeEntry(b[off:])
		if err != nil {
			return r, err
		}
		r.Entries = append(r.Entries, e)
		off += n
	}
	return r, nil
}

// writeResult is the reply to MsgWrite: status + the versions assigned to
// each column (returned so read-modify-write loops can chain).
type writeResult struct {
	Status   uint8
	Detail   string
	Versions []uint64
}

func encodeWriteResult(r writeResult) []byte {
	buf := make([]byte, 0, 1+2+len(r.Detail)+2+8*len(r.Versions))
	buf = append(buf, r.Status)
	var s [8]byte
	binary.LittleEndian.PutUint16(s[:2], uint16(len(r.Detail)))
	buf = append(buf, s[:2]...)
	buf = append(buf, r.Detail...)
	binary.LittleEndian.PutUint16(s[:2], uint16(len(r.Versions)))
	buf = append(buf, s[:2]...)
	for _, v := range r.Versions {
		binary.LittleEndian.PutUint64(s[:8], v)
		buf = append(buf, s[:8]...)
	}
	return buf
}

func decodeWriteResult(b []byte) (writeResult, error) {
	var r writeResult
	if len(b) < 3 {
		return r, fmt.Errorf("core: write result truncated")
	}
	r.Status = b[0]
	dl := int(binary.LittleEndian.Uint16(b[1:3]))
	off := 3
	if len(b) < off+dl+2 {
		return r, fmt.Errorf("core: write result detail truncated")
	}
	r.Detail = string(b[off : off+dl])
	off += dl
	nv := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+8*nv {
		return r, fmt.Errorf("core: write result versions truncated")
	}
	if nv > 0 {
		r.Versions = make([]uint64, 0, nv)
	}
	for i := 0; i < nv; i++ {
		r.Versions = append(r.Versions, binary.LittleEndian.Uint64(b[off+8*i:]))
	}
	return r, nil
}

// getReq asks for one column. Consistent selects strong consistency (route
// to leader, latest value) vs timeline (any replica, possibly stale) — §3.
type getReq struct {
	Row, Col   string
	Consistent bool
}

//spinnaker:hotpath
func encodeGetReq(r getReq) []byte {
	buf := make([]byte, 1+2+len(r.Row)+2+len(r.Col))
	if r.Consistent {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(r.Row)))
	off := 3 + copy(buf[3:], r.Row)
	binary.LittleEndian.PutUint16(buf[off:], uint16(len(r.Col)))
	copy(buf[off+2:], r.Col)
	return buf
}

//spinnaker:hotpath
func decodeGetReq(b []byte) (getReq, error) {
	var r getReq
	if len(b) < 3 {
		return r, errGetReqTruncated
	}
	r.Consistent = b[0] == 1
	off := 1
	rl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+rl+2 {
		return r, errGetReqTruncated
	}
	r.Row = string(b[off : off+rl])
	off += rl
	cl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+cl {
		return r, errGetReqTruncated
	}
	r.Col = string(b[off : off+cl])
	return r, nil
}

// getResp returns a column value and its version (§3: versions are exposed
// through the get API for use in conditional writes).
type getResp struct {
	Status  uint8
	Value   []byte
	Version uint64
}

// encodeGetResp copies r.Value — which on a table hit aliases the table's
// blob — into a fresh exact-size buffer. The buffer is never pooled: it
// becomes the reply payload, and the client's result aliases it.
//
//spinnaker:hotpath
func encodeGetResp(r getResp) []byte {
	buf := make([]byte, 13+len(r.Value))
	buf[0] = r.Status
	binary.LittleEndian.PutUint64(buf[1:9], r.Version)
	binary.LittleEndian.PutUint32(buf[9:13], uint32(len(r.Value)))
	copy(buf[13:], r.Value)
	return buf
}

// decodeGetResp parses a get reply without copying: Value aliases b. A reply
// payload is private to the call that received it on both transports (the
// in-process one hands over the server's fresh buffer, the TCP one a copy
// out of the frame, the duplication fault a clone), so the client returns
// Value to its caller as is.
//
//spinnaker:aliases
//spinnaker:hotpath
func decodeGetResp(b []byte) (getResp, error) {
	var r getResp
	if len(b) < 13 {
		return r, errGetRespTruncated
	}
	r.Status = b[0]
	r.Version = binary.LittleEndian.Uint64(b[1:9])
	n := int(binary.LittleEndian.Uint32(b[9:13]))
	if len(b)-13 < n {
		return r, errGetRespTruncated
	}
	if n > 0 {
		r.Value = b[13 : 13+n : 13+n]
	}
	return r, nil
}

// rowResp returns all live columns of a row.
type rowResp struct {
	Status  uint8
	Entries []kv.Entry
}

func encodeRowResp(r rowResp) []byte {
	buf := []byte{r.Status}
	var s [4]byte
	binary.LittleEndian.PutUint32(s[:], uint32(len(r.Entries)))
	buf = append(buf, s[:]...)
	for _, e := range r.Entries {
		buf = kv.EncodeEntry(buf, e)
	}
	return buf
}

func decodeRowResp(b []byte) (rowResp, error) {
	var r rowResp
	if len(b) < 5 {
		return r, fmt.Errorf("core: row resp truncated")
	}
	r.Status = b[0]
	count := int(binary.LittleEndian.Uint32(b[1:5]))
	off := 5
	if count > (len(b)-off)/minEntryEncodedSize {
		return r, fmt.Errorf("core: row resp count %d exceeds %d payload bytes", count, len(b)-off)
	}
	if count > 0 {
		r.Entries = make([]kv.Entry, 0, count)
	}
	for i := 0; i < count; i++ {
		e, n, err := kv.DecodeEntry(b[off:])
		if err != nil {
			return r, err
		}
		r.Entries = append(r.Entries, e)
		off += n
	}
	return r, nil
}
