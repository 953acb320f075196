package wal

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"runtime"
	"testing"
)

func TestMemDeviceAppendRead(t *testing.T) {
	d := NewMemDevice(DeviceInstant)
	off1, err := d.Append([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	off2, err := d.Append([]byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if off1 != 0 || off2 != 5 {
		t.Errorf("offsets = %d,%d want 0,5", off1, off2)
	}
	buf := make([]byte, 10)
	if _, err := d.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "helloworld" {
		t.Errorf("read %q", buf)
	}
	if d.Size() != 10 {
		t.Errorf("Size = %d", d.Size())
	}
}

func TestMemDeviceCrashSemantics(t *testing.T) {
	d := NewMemDevice(DeviceInstant)
	if _, err := d.Append([]byte("forced")); err != nil {
		t.Fatal(err)
	}
	if err := d.Force(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append([]byte("+lost")); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if d.Size() != 6 {
		t.Errorf("after crash Size = %d, want 6 (unforced tail lost)", d.Size())
	}
}

func TestMemDeviceFailAndRepair(t *testing.T) {
	d := NewMemDevice(DeviceInstant)
	if _, err := d.Append([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := d.Force(); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	if _, err := d.Append([]byte("x")); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("append on failed device: %v", err)
	}
	if err := d.Force(); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("force on failed device: %v", err)
	}
	if _, err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrDeviceFailed) {
		t.Errorf("read on failed device: %v", err)
	}
	d.Repair()
	if d.Size() != 0 {
		t.Errorf("repaired device not empty: %d bytes", d.Size())
	}
	if _, err := d.Append([]byte("fresh")); err != nil {
		t.Errorf("append after repair: %v", err)
	}
}

func TestMemDeviceReadAtEOF(t *testing.T) {
	d := NewMemDevice(DeviceInstant)
	if _, err := d.Append([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(make([]byte, 1), 99); err != io.EOF {
		t.Errorf("ReadAt past end: %v, want io.EOF", err)
	}
	n, err := d.ReadAt(make([]byte, 10), 1)
	if n != 2 || err != io.EOF {
		t.Errorf("short read = %d,%v want 2,EOF", n, err)
	}
}

func TestMemDeviceForceCounting(t *testing.T) {
	d := NewMemDevice(DeviceInstant)
	for i := 0; i < 3; i++ {
		if _, err := d.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := d.Force(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Forces() != 3 {
		t.Errorf("Forces = %d, want 3", d.Forces())
	}
	if d.Durable() != 3 {
		t.Errorf("Durable = %d, want 3", d.Durable())
	}
}

// TestMemDeviceChunkBoundaries drives a device across its memChunk seams
// beside a flat copy of what it should hold: an append larger than a
// chunk, reads spanning chunks, a crash with the durable point mid-chunk
// followed by more appends, and a failed and repaired device.
func TestMemDeviceChunkBoundaries(t *testing.T) {
	d := NewMemDevice(DeviceInstant)
	var want []byte
	appendBytes := func(n int) {
		t.Helper()
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(len(want) + i*7)
		}
		if off, err := d.Append(p); err != nil || off != int64(len(want)) {
			t.Fatalf("Append(%d bytes) at %d = %d, %v", n, len(want), off, err)
		}
		want = append(want, p...)
	}
	check := func(what string) {
		t.Helper()
		if d.Size() != int64(len(want)) {
			t.Fatalf("%s: Size = %d, want %d", what, d.Size(), len(want))
		}
		for _, off := range []int{0, memChunk - 3, memChunk, 2*memChunk - 1, len(want) - 5} {
			if off < 0 || off >= len(want) {
				continue
			}
			got := make([]byte, len(want)-off+10) // ends past the device: a short read
			n, err := d.ReadAt(got, int64(off))
			if n != len(want)-off || err != io.EOF || !bytes.Equal(got[:n], want[off:]) {
				t.Fatalf("%s: ReadAt(%d) = %d, %v; want %d bytes matching", what, off, n, err, len(want)-off)
			}
		}
	}

	appendBytes(memChunk - 10)
	appendBytes(2*memChunk + 100) // the rest of chunk 0, all of 1 and 2, into 3
	check("append larger than a chunk")

	if err := d.Force(); err != nil {
		t.Fatal(err)
	}
	durable := len(want) // mid-chunk 3
	appendBytes(memChunk)
	d.Crash()
	want = want[:durable]
	check("crash mid-chunk")
	appendBytes(memChunk + 1) // overwrites the lost tail, into a fresh chunk
	check("append after crash")

	d.Fail()
	if _, err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("read of failed device: %v", err)
	}
	d.Repair()
	want = nil
	check("repaired")
	appendBytes(memChunk + 1)
	check("append after repair")
}

// TestMemDeviceAppendAllocs: a growing device allocates its bytes once, a
// chunk at a time; a buffer grown by append copied everything it held at
// every regrowth.
func TestMemDeviceAppendAllocs(t *testing.T) {
	const total = 4 << 20
	rec := make([]byte, 1<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewMemDevice(DeviceInstant)
	for n := 0; n < total; n += len(rec) {
		if _, err := d.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > total+total/16 {
		t.Errorf("appending %d bytes allocated %d", total, got)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.log")
	d, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append([]byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := d.Force(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Size() != 9 {
		t.Fatalf("reopened Size = %d, want 9", d2.Size())
	}
	buf := make([]byte, 9)
	if _, err := d2.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "persisted" {
		t.Errorf("read %q", buf)
	}
	// Appends continue at the end across reopen.
	if off, err := d2.Append([]byte("!")); err != nil || off != 9 {
		t.Errorf("append after reopen: off=%d err=%v", off, err)
	}
}

func TestFileSegmentStoreLifecycle(t *testing.T) {
	s, err := NewFileSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{2, 0, 1} {
		if _, err := s.Create(id); err != nil {
			t.Fatalf("Create(%d): %v", id, err)
		}
	}
	ids, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Fatalf("List = %v, want [0 1 2]", ids)
	}
	if _, err := s.Create(1); err == nil {
		t.Error("Create of existing segment must fail")
	}
	if err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	ids, _ = s.List()
	if len(ids) != 2 {
		t.Fatalf("after Remove List = %v", ids)
	}
}

func TestMemSegmentStoreLifecycle(t *testing.T) {
	s := NewMemSegmentStore(DeviceInstant)
	if _, err := s.Create(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(0); err == nil {
		t.Error("duplicate Create must fail")
	}
	if _, err := s.Open(7); err == nil {
		t.Error("Open of missing segment must fail")
	}
	if err := s.Remove(0); err != nil {
		t.Fatal(err)
	}
	ids, _ := s.List()
	if len(ids) != 0 {
		t.Errorf("List after remove = %v", ids)
	}
}

func TestMemSegmentStoreFailDestroysAll(t *testing.T) {
	s := NewMemSegmentStore(DeviceInstant)
	d, _ := s.Create(0)
	if _, err := d.Append([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := d.Force(); err != nil {
		t.Fatal(err)
	}
	s.Fail()
	ids, _ := s.List()
	if len(ids) != 0 {
		t.Errorf("segments survive Fail: %v", ids)
	}
}
