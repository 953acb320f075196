package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// RecType discriminates the kinds of records in the shared log.
type RecType uint8

const (
	// RecWrite carries a replicated write (a put/delete proposal). These
	// are the records forced to disk before acknowledging a propose
	// message (paper §5, Fig 4).
	RecWrite RecType = 1 + iota
	// RecLastCommitted records the cohort's last committed LSN. It is
	// written with a non-forced log write when a commit message is sent
	// or processed (paper §5: "log last committed LSN, non-forced").
	RecLastCommitted
	// RecCheckpoint records that all of a cohort's writes up to the LSN
	// have been captured in SSTables; local recovery replays from the
	// most recent checkpoint (paper §6.1).
	RecCheckpoint
	// RecResetCohort marks a cohort re-join after a membership departure:
	// every record of the cohort before this point (and the storage
	// engine's pre-departure contents) is stale state from an earlier
	// membership and must be discarded by local recovery. Without it, a
	// key deleted cluster-wide while the node was out of the cohort —
	// whose tombstone was then compacted away — would resurrect from the
	// node's old SSTables or log records when it rejoins.
	RecResetCohort
)

// String implements fmt.Stringer for diagnostics.
func (t RecType) String() string {
	switch t {
	case RecWrite:
		return "write"
	case RecLastCommitted:
		return "lastCommitted"
	case RecCheckpoint:
		return "checkpoint"
	case RecResetCohort:
		return "resetCohort"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is one entry in a node's shared write-ahead log. Cohort identifies
// the logical LSN stream the record belongs to: the shared log interleaves
// the records of every cohort (key range) the node serves (paper §4.1).
type Record struct {
	Cohort  uint32
	Type    RecType
	LSN     LSN
	Payload []byte
}

// recHeaderSize is the fixed framing: u32 body length + u32 CRC32.
const recHeaderSize = 8

// ErrCorruptRecord is returned when decoding hits a CRC or framing
// mismatch. During recovery this marks the torn tail of the log: bytes
// appended but not forced before a crash.
var ErrCorruptRecord = errors.New("wal: corrupt record")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// grow extends dst by n bytes with at most one allocation and returns the
// extended slice together with the n-byte window just added.
//
//spinnaker:hotpath
func grow(dst []byte, n int) ([]byte, []byte) {
	l := len(dst)
	if cap(dst)-l < n {
		bigger := make([]byte, l, l+n)
		copy(bigger, dst)
		dst = bigger
	}
	dst = dst[:l+n]
	return dst, dst[l : l+n]
}

// Every frame in the log is a group frame: one length+CRC header, a marker
// byte, a record count, then the records (a lone Append is a group of one),
// so the follower append path pays framing and checksum cost once per
// MsgProposeBatch instead of once per record, and a scan has one decoder.
// recGroupFrame lies outside every RecType: the first body byte of the retired
// single-record framing was a RecType, so a log written in that format is
// rejected as corrupt rather than mis-parsed.
const recGroupFrame = 0xF0

const (
	groupBodyFixed = 1 + 4         // marker + record count
	groupRecFixed  = 1 + 4 + 8 + 4 // type + cohort + LSN + payload length
)

// GroupEncodedSize returns the number of bytes EncodeGroup will produce.
//
//spinnaker:hotpath
func GroupEncodedSize(recs []Record) int {
	n := recHeaderSize + groupBodyFixed
	for i := range recs {
		n += groupRecFixed + len(recs[i].Payload)
	}
	return n
}

// EncodeGroup serializes recs as one group frame, appending to dst. The
// destination grows at most once (callers pre-size with GroupEncodedSize).
//
//spinnaker:hotpath
func EncodeGroup(dst []byte, recs []Record) []byte {
	need := GroupEncodedSize(recs)
	dst, b := grow(dst, need)
	bodyLen := need - recHeaderSize
	binary.LittleEndian.PutUint32(b[0:4], uint32(bodyLen))
	body := b[recHeaderSize:]
	body[0] = recGroupFrame
	binary.LittleEndian.PutUint32(body[1:5], uint32(len(recs)))
	off := groupBodyFixed
	for i := range recs {
		r := &recs[i]
		body[off] = byte(r.Type)
		binary.LittleEndian.PutUint32(body[off+1:off+5], r.Cohort)
		binary.LittleEndian.PutUint64(body[off+5:off+13], uint64(r.LSN))
		binary.LittleEndian.PutUint32(body[off+13:off+17], uint32(len(r.Payload)))
		off += groupRecFixed
		off += copy(body[off:], r.Payload)
	}
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(body, crcTable))
	return dst
}

// decodeGroupBody parses the records of a CRC-verified group frame body (at
// least groupBodyFixed bytes), invoking fn for each in append order.
func decodeGroupBody(body []byte, fn func(Record) error) error {
	count := int(binary.LittleEndian.Uint32(body[1:5]))
	off := groupBodyFixed
	for i := 0; i < count; i++ {
		if len(body)-off < groupRecFixed {
			return ErrCorruptRecord
		}
		rec := Record{
			Type:   RecType(body[off]),
			Cohort: binary.LittleEndian.Uint32(body[off+1 : off+5]),
			LSN:    LSN(binary.LittleEndian.Uint64(body[off+5 : off+13])),
		}
		plen := int(binary.LittleEndian.Uint32(body[off+13 : off+17]))
		off += groupRecFixed
		if plen > len(body)-off {
			return ErrCorruptRecord
		}
		if plen > 0 {
			rec.Payload = append([]byte(nil), body[off:off+plen]...)
		}
		off += plen
		if err := fn(rec); err != nil {
			return err
		}
	}
	if off != len(body) {
		return ErrCorruptRecord
	}
	return nil
}

// DecodeFrame parses one frame from b, invoking fn once per record it
// carries, and returns the bytes consumed. ErrCorruptRecord — a framing or
// checksum mismatch, or a first body byte other than recGroupFrame — marks
// the torn tail of the log, which recovery treats as the end of the valid
// log; any other error is fn's.
func DecodeFrame(b []byte, fn func(Record) error) (int, error) {
	if len(b) < recHeaderSize {
		return 0, ErrCorruptRecord
	}
	bodyLen := int(binary.LittleEndian.Uint32(b[0:4]))
	if bodyLen < groupBodyFixed || bodyLen > len(b)-recHeaderSize {
		return 0, ErrCorruptRecord
	}
	wantCRC := binary.LittleEndian.Uint32(b[4:8])
	body := b[recHeaderSize : recHeaderSize+bodyLen]
	if crc32.Checksum(body, crcTable) != wantCRC || body[0] != recGroupFrame {
		return 0, ErrCorruptRecord
	}
	return recHeaderSize + bodyLen, decodeGroupBody(body, fn)
}
