package kv

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"spinnaker/internal/wal"
)

func TestKeyCompare(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{"a", "x"}, Key{"a", "x"}, 0},
		{Key{"a", "x"}, Key{"a", "y"}, -1},
		{Key{"a", "y"}, Key{"a", "x"}, 1},
		{Key{"a", "z"}, Key{"b", "a"}, -1},
		{Key{"b", ""}, Key{"a", "zzz"}, 1},
		{Key{"", ""}, Key{"", ""}, 0},
	}
	for _, c := range cases {
		got := c.a.Compare(c.b)
		norm := 0
		if got < 0 {
			norm = -1
		} else if got > 0 {
			norm = 1
		}
		if norm != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if c.a.Less(c.b) != (c.want < 0) {
			t.Errorf("Less(%v,%v) inconsistent with Compare", c.a, c.b)
		}
	}
}

func TestKeyString(t *testing.T) {
	if got := (Key{"row1", "colA"}).String(); got != "row1:colA" {
		t.Errorf("String() = %q", got)
	}
}

func TestCellNewer(t *testing.T) {
	l1 := Cell{LSN: wal.MakeLSN(1, 1)}
	l2 := Cell{LSN: wal.MakeLSN(1, 2)}
	if !l2.Newer(l1) || l1.Newer(l2) {
		t.Error("LSN ordering broken")
	}
	// Epoch dominates sequence.
	e2 := Cell{LSN: wal.MakeLSN(2, 0)}
	if !e2.Newer(Cell{LSN: wal.MakeLSN(1, 99)}) {
		t.Error("epoch must dominate")
	}
	// Timestamp tie-break when LSNs equal (baseline store).
	t1 := Cell{Timestamp: 10}
	t2 := Cell{Timestamp: 20}
	if !t2.Newer(t1) || t1.Newer(t2) {
		t.Error("timestamp ordering broken")
	}
	// Version as final tie-break.
	v1 := Cell{Version: 1}
	v2 := Cell{Version: 2}
	if !v2.Newer(v1) || v1.Newer(v2) {
		t.Error("version ordering broken")
	}
	// Fully equal cells: neither is newer.
	if (Cell{}).Newer(Cell{}) {
		t.Error("equal cells must not be Newer")
	}
}

func TestEntryRoundTrip(t *testing.T) {
	e := Entry{
		Key: Key{Row: "user:42", Col: "email"},
		Cell: Cell{
			Value: []byte("x@example.com"), Version: 7,
			LSN: wal.MakeLSN(1, 21), Timestamp: 12345, Deleted: false,
		},
	}
	buf := EncodeEntry(nil, e)
	got, n, err := DecodeEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if got.Key != e.Key || got.Cell.Version != 7 || got.Cell.LSN != e.Cell.LSN ||
		got.Cell.Timestamp != 12345 || got.Cell.Deleted ||
		!bytes.Equal(got.Cell.Value, e.Cell.Value) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestEntryTombstone(t *testing.T) {
	e := Entry{Key: Key{"r", "c"}, Cell: Cell{Deleted: true, Version: 3}}
	got, _, err := DecodeEntry(EncodeEntry(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cell.Deleted {
		t.Error("tombstone flag lost")
	}
	if len(got.Cell.Value) != 0 {
		t.Errorf("tombstone has value %q", got.Cell.Value)
	}
}

func TestEntryDecodeTruncated(t *testing.T) {
	e := Entry{Key: Key{"row", "col"}, Cell: Cell{Value: []byte("value")}}
	buf := EncodeEntry(nil, e)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeEntry(buf[:cut]); err == nil {
			t.Errorf("cut at %d: decode succeeded", cut)
		}
		if _, _, ok := ViewEntry(buf[:cut]); ok {
			t.Errorf("cut at %d: in-place view succeeded", cut)
		}
	}
}

func TestEntryPropertyRoundTrip(t *testing.T) {
	f := func(row, col string, value []byte, version uint64, ts int64, del bool, seq uint32) bool {
		if len(row) > 1<<15 || len(col) > 1<<15 {
			return true // lengths beyond the u16 framing are out of scope
		}
		e := Entry{
			Key: Key{Row: row, Col: col},
			Cell: Cell{
				Value: value, Version: version, Timestamp: ts,
				Deleted: del, LSN: wal.MakeLSN(1, uint64(seq)),
			},
		}
		buf := EncodeEntry(nil, e)
		got, n, err := DecodeEntry(buf)
		if err != nil {
			return false
		}
		// The in-place view must locate what DecodeEntry decodes.
		view, vn, ok := ViewEntry(buf)
		if !ok || vn != n || view.Compare(e.Key) != 0 || !reflect.DeepEqual(view.Cell(), got.Cell) {
			return false
		}
		return n > 0 && got.Key == e.Key && got.Cell.Version == version &&
			got.Cell.Timestamp == ts && got.Cell.Deleted == del &&
			bytes.Equal(got.Cell.Value, value) && got.Cell.LSN == e.Cell.LSN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeEntryAppends(t *testing.T) {
	e1 := Entry{Key: Key{"a", "1"}, Cell: Cell{Value: []byte("v1")}}
	e2 := Entry{Key: Key{"b", "2"}, Cell: Cell{Value: []byte("v2")}}
	buf := EncodeEntry(EncodeEntry(nil, e1), e2)
	g1, n, err := DecodeEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := DecodeEntry(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if g1.Key.Row != "a" || g2.Key.Row != "b" {
		t.Errorf("rows = %q,%q", g1.Key.Row, g2.Key.Row)
	}
}
