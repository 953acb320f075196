package core

import (
	"encoding/binary"
	"fmt"

	"spinnaker/internal/wal"
)

// Bulk catch-up wire formats (§6.1, SSTable-based catch-up). All decoders
// validate element counts and lengths against the payload size before
// allocating, matching the manifest hardening in internal/storage.

// snapTableMeta describes one SSTable the leader offers for shipping: its
// id in the leader's engine (the chunk-fetch handle) and its full blob size
// and CRC. The table's LSN tags travel inside the blob, in its footer.
type snapTableMeta struct {
	ID   uint64
	Size uint32
	CRC  uint32
}

// snapTableMetaSize is one table's encoded size.
const snapTableMetaSize = 8 + 4 + 4

// snapManifest is the MsgSnapManifest reply payload: the snapshot's
// coverage point (SnapCmt — every committed write at or below it is
// reflected in the listed tables), the leader's current commit point, the
// ambiguous-LSN intersection (as in catchupResp), and the tables the
// follower fetches.
type snapManifest struct {
	Status  uint8
	Cmt     wal.LSN
	SnapCmt wal.LSN
	Present []wal.LSN
	Tables  []snapTableMeta
}

func encodeSnapManifest(m snapManifest) []byte {
	buf := []byte{m.Status}
	buf = append(buf, encodeLSN(m.Cmt)...)
	buf = append(buf, encodeLSN(m.SnapCmt)...)
	buf = append(buf, encodeLSNs(m.Present)...)
	var s [8]byte
	binary.LittleEndian.PutUint32(s[:4], uint32(len(m.Tables)))
	buf = append(buf, s[:4]...)
	for _, t := range m.Tables {
		binary.LittleEndian.PutUint64(s[:8], t.ID)
		buf = append(buf, s[:8]...)
		binary.LittleEndian.PutUint32(s[:4], t.Size)
		buf = append(buf, s[:4]...)
		binary.LittleEndian.PutUint32(s[:4], t.CRC)
		buf = append(buf, s[:4]...)
	}
	return buf
}

func decodeSnapManifest(b []byte) (snapManifest, error) {
	var m snapManifest
	if len(b) < 1+8+8 {
		return m, fmt.Errorf("core: snap manifest truncated")
	}
	m.Status = b[0]
	m.Cmt = wal.LSN(binary.LittleEndian.Uint64(b[1:9]))
	m.SnapCmt = wal.LSN(binary.LittleEndian.Uint64(b[9:17]))
	off := 17
	present, n, err := decodeLSNs(b[off:])
	if err != nil {
		return m, err
	}
	m.Present = present
	off += n

	if len(b)-off < 4 {
		return m, fmt.Errorf("core: snap manifest table count truncated")
	}
	nTables := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if nTables > (len(b)-off)/snapTableMetaSize {
		return m, fmt.Errorf("core: snap manifest table count %d exceeds %d payload bytes", nTables, len(b)-off)
	}
	if nTables > 0 {
		m.Tables = make([]snapTableMeta, nTables)
	}
	for i := range m.Tables {
		t := &m.Tables[i]
		t.ID = binary.LittleEndian.Uint64(b[off:])
		t.Size = binary.LittleEndian.Uint32(b[off+8:])
		t.CRC = binary.LittleEndian.Uint32(b[off+12:])
		off += snapTableMetaSize
	}
	return m, nil
}

// tableChunkReq asks for the bytes of one manifest table starting at
// Offset. The follower drives the offsets, so a chunk that fails its CRC is
// simply re-requested at the same offset (resumable transfer).
type tableChunkReq struct {
	Table  uint64
	Offset uint32
}

func encodeTableChunkReq(r tableChunkReq) []byte {
	var buf [12]byte
	binary.LittleEndian.PutUint64(buf[0:8], r.Table)
	binary.LittleEndian.PutUint32(buf[8:12], r.Offset)
	return buf[:]
}

func decodeTableChunkReq(b []byte) (tableChunkReq, error) {
	var r tableChunkReq
	if len(b) < 12 {
		return r, fmt.Errorf("core: table chunk req truncated")
	}
	r.Table = binary.LittleEndian.Uint64(b[0:8])
	r.Offset = binary.LittleEndian.Uint32(b[8:12])
	return r, nil
}

// tableChunk is one slice of a table blob. Total lets the follower verify
// it is still fetching the blob the manifest described; CRC covers Data
// alone (the whole blob is checked against the manifest CRC at the end).
// StatusNotFound means the table left the live set (compacted away) and the
// follower must restart from a fresh manifest.
type tableChunk struct {
	Status uint8
	Table  uint64
	Offset uint32
	Total  uint32
	CRC    uint32
	Data   []byte
}

func encodeTableChunk(c tableChunk) []byte {
	buf := make([]byte, 1+8+4+4+4+4, 1+8+4+4+4+4+len(c.Data))
	buf[0] = c.Status
	binary.LittleEndian.PutUint64(buf[1:9], c.Table)
	binary.LittleEndian.PutUint32(buf[9:13], c.Offset)
	binary.LittleEndian.PutUint32(buf[13:17], c.Total)
	binary.LittleEndian.PutUint32(buf[17:21], c.CRC)
	binary.LittleEndian.PutUint32(buf[21:25], uint32(len(c.Data)))
	return append(buf, c.Data...)
}

func decodeTableChunk(b []byte) (tableChunk, error) {
	var c tableChunk
	if len(b) < 25 {
		return c, fmt.Errorf("core: table chunk truncated")
	}
	c.Status = b[0]
	c.Table = binary.LittleEndian.Uint64(b[1:9])
	c.Offset = binary.LittleEndian.Uint32(b[9:13])
	c.Total = binary.LittleEndian.Uint32(b[13:17])
	c.CRC = binary.LittleEndian.Uint32(b[17:21])
	dl := int(binary.LittleEndian.Uint32(b[21:25]))
	if dl > len(b)-25 {
		return c, fmt.Errorf("core: table chunk data length %d exceeds %d payload bytes", dl, len(b)-25)
	}
	if dl > 0 {
		c.Data = append([]byte(nil), b[25:25+dl]...)
	}
	return c, nil
}
