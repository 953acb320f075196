package wal

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestLog(t *testing.T, store SegmentStore, segBytes int64) *Log {
	t.Helper()
	l, err := Open(Config{Store: store, SegmentBytes: segBytes, GroupCommit: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func writeRec(cohort uint32, epoch uint32, seq uint64, payload string) Record {
	return Record{Cohort: cohort, Type: RecWrite, LSN: MakeLSN(epoch, seq), Payload: []byte(payload)}
}

func TestLogAppendScan(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	want := []Record{
		writeRec(0, 1, 1, "a"),
		writeRec(1, 1, 1, "b"),
		writeRec(0, 1, 2, "c"),
	}
	for _, r := range want {
		if err := l.AppendForce(r); err != nil {
			t.Fatalf("AppendForce: %v", err)
		}
	}
	var got []Record
	if err := l.Scan(func(rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Cohort != want[i].Cohort {
			t.Errorf("rec %d = %v/%s, want %v/%s", i, got[i].Cohort, got[i].LSN, want[i].Cohort, want[i].LSN)
		}
	}
}

func TestLogScanCohortFilters(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	for seq := uint64(1); seq <= 10; seq++ {
		cohort := uint32(seq % 3)
		if err := l.AppendForce(writeRec(cohort, 1, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := l.ScanCohort(1, func(rec Record) error {
		if rec.Cohort != 1 {
			t.Errorf("ScanCohort(1) yielded cohort %d", rec.Cohort)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 { // seqs 1, 4, 7, 10
		t.Errorf("ScanCohort(1) yielded %d records, want 4", n)
	}
}

func TestLogCrashLosesUnforcedTail(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	if err := l.AppendForce(writeRec(0, 1, 1, "durable")); err != nil {
		t.Fatal(err)
	}
	// Appended but never forced: must vanish at crash.
	if _, err := l.Append(writeRec(0, 1, 2, "volatile")); err != nil {
		t.Fatal(err)
	}
	store.Crash()

	l2 := newTestLog(t, store, 0)
	var lsns []LSN
	if err := l2.Scan(func(rec Record) error {
		lsns = append(lsns, rec.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 1 || lsns[0] != MakeLSN(1, 1) {
		t.Fatalf("after crash got %v, want just 1.1", lsns)
	}
}

func TestLogCrashTornRecord(t *testing.T) {
	// A record half-written at crash (simulated by forcing, then crashing
	// with a partial append) must be dropped and not corrupt the scan.
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	if err := l.AppendForce(writeRec(0, 1, 1, "ok")); err != nil {
		t.Fatal(err)
	}
	// Write garbage bytes directly to the device to emulate a torn tail
	// that was partially forced.
	ids, _ := store.List()
	dev, _ := store.Open(ids[len(ids)-1])
	if _, err := dev.Append([]byte{0x13, 0x37, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Force(); err != nil {
		t.Fatal(err)
	}

	l2 := newTestLog(t, store, 0)
	var n int
	if err := l2.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("scan found %d records, want 1 (torn tail dropped)", n)
	}
	// The reopened log must still accept appends after the torn tail.
	if err := l2.AppendForce(writeRec(0, 1, 2, "after")); err != nil {
		t.Fatalf("append after torn tail: %v", err)
	}
}

func TestLogRollsSegments(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 64) // tiny threshold forces rolling
	for seq := uint64(1); seq <= 20; seq++ {
		if err := l.AppendForce(writeRec(0, 1, seq, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("expected multiple segments, got %d", l.Segments())
	}
	var n int
	if err := l.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("scan over rolled log found %d records, want 20", n)
	}
}

func TestLogReopenAcrossSegments(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 64)
	for seq := uint64(1); seq <= 12; seq++ {
		if err := l.AppendForce(writeRec(0, 1, seq, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	store.Crash()

	l2 := newTestLog(t, store, 64)
	if l2.Segments() != segs {
		t.Errorf("reopened with %d segments, want %d", l2.Segments(), segs)
	}
	var max LSN
	if err := l2.Scan(func(rec Record) error {
		if rec.LSN > max {
			max = rec.LSN
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if max != MakeLSN(1, 12) {
		t.Errorf("max LSN after reopen = %s, want 1.12", max)
	}
	// New appends must continue in a fresh or existing segment without
	// clobbering old data.
	if err := l2.AppendForce(writeRec(0, 1, 13, "tail")); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := l2.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Errorf("after reopen+append scan found %d, want 13", n)
	}
}

func TestLogCohortWritesIn(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	for seq := uint64(1); seq <= 9; seq++ {
		if err := l.AppendForce(writeRec(2, 1, seq, "v")); err != nil {
			t.Fatal(err)
		}
	}
	recs, ok, err := l.CohortWritesIn(2, MakeLSN(1, 3), MakeLSN(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected complete result")
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (LSNs 4..7)", len(recs))
	}
	if recs[0].LSN != MakeLSN(1, 4) || recs[3].LSN != MakeLSN(1, 7) {
		t.Errorf("range = %s..%s, want 1.4..1.7", recs[0].LSN, recs[3].LSN)
	}
}

func TestLogDropCapturedSegments(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 64)
	for seq := uint64(1); seq <= 20; seq++ {
		if err := l.AppendForce(writeRec(0, 1, seq, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	if before < 3 {
		t.Fatalf("need ≥3 segments for this test, got %d", before)
	}
	// Nothing captured: nothing droppable.
	dropped, err := l.DropCapturedSegments(map[uint32]LSN{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Fatalf("dropped %v with nothing captured", dropped)
	}
	// Everything captured: all but the current segment go.
	dropped, err = l.DropCapturedSegments(map[uint32]LSN{0: MakeLSN(1, 20)})
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != before-1 {
		t.Fatalf("dropped %d segments, want %d", len(dropped), before-1)
	}
	// Catch-up for truncated ranges must now report incompleteness.
	_, ok, err := l.CohortWritesIn(0, 0, MakeLSN(1, 20))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("CohortWritesIn claims completeness after truncation")
	}
}

// TestLogReleasesDroppedSegments: a segment truncation drops becomes
// garbage at once. The live-segment slice used to keep dropped segments in
// its backing array until the next regrowth — about 25 MiB of a write-mem
// run's heap was log bytes already truncated.
func TestLogReleasesDroppedSegments(t *testing.T) {
	store := &finalizingStore{MemSegmentStore: NewMemSegmentStore(DeviceInstant)}
	l := newTestLog(t, store, 64)
	for seq := uint64(1); seq <= 20; seq++ {
		if err := l.AppendForce(writeRec(0, 1, seq, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	dropped, err := l.DropCapturedSegments(map[uint32]LSN{0: MakeLSN(1, 20)})
	if err != nil || len(dropped) < 2 {
		t.Fatalf("dropped %v, %v; want ≥ 2 segments", dropped, err)
	}
	for deadline := time.Now().Add(5 * time.Second); store.finalized.Load() < int32(len(dropped)); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d dropped segments collected", store.finalized.Load(), len(dropped))
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(l)
}

// finalizingStore counts the devices it created that the collector freed.
type finalizingStore struct {
	*MemSegmentStore
	finalized atomic.Int32
}

func (s *finalizingStore) Create(id uint64) (Device, error) {
	d, err := s.MemSegmentStore.Create(id)
	if err == nil {
		runtime.SetFinalizer(d.(*MemDevice), func(*MemDevice) { s.finalized.Add(1) })
	}
	return d, err
}

func TestLogGroupCommitSharesForces(t *testing.T) {
	store := NewMemSegmentStore(DeviceProfile{Name: "slow", ForceLatency: 2e6}) // 2ms
	l := newTestLog(t, store, 0)
	const writers = 16
	var wg sync.WaitGroup
	wg.Add(writers)
	for i := 0; i < writers; i++ {
		go func(seq uint64) {
			defer wg.Done()
			if err := l.AppendForce(writeRec(0, 1, seq, "w")); err != nil {
				t.Errorf("AppendForce: %v", err)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if forces := store.TotalForces(); forces >= writers {
		t.Errorf("group commit used %d forces for %d concurrent writers", forces, writers)
	}
	var n int
	if err := l.Scan(func(Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers {
		t.Errorf("scan found %d records, want %d", n, writers)
	}
}

func TestLogNoGroupCommitForcesEach(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l, err := Open(Config{Store: store, GroupCommit: false})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.AppendForce(writeRec(0, 1, seq, "w")); err != nil {
			t.Fatal(err)
		}
	}
	if forces := store.TotalForces(); forces < 5 {
		t.Errorf("without group commit want ≥5 forces, got %d", forces)
	}
}

func TestLogNonForcedAppendStaysVolatile(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 0)
	if _, err := l.Append(Record{Cohort: 0, Type: RecLastCommitted, LSN: MakeLSN(1, 5)}); err != nil {
		t.Fatal(err)
	}
	ids, _ := store.List()
	dev, _ := store.Open(ids[0])
	if md := dev.(*MemDevice); md.Durable() != 0 {
		t.Errorf("non-forced append became durable (%d bytes)", md.Durable())
	}
}

func TestLogConcurrentAppendersAllRecovered(t *testing.T) {
	store := NewMemSegmentStore(DeviceInstant)
	l := newTestLog(t, store, 1024)
	const perCohort = 50
	var wg sync.WaitGroup
	for cohort := uint32(0); cohort < 3; cohort++ {
		wg.Add(1)
		go func(c uint32) {
			defer wg.Done()
			for seq := uint64(1); seq <= perCohort; seq++ {
				if err := l.AppendForce(writeRec(c, 1, seq, "data")); err != nil {
					t.Errorf("cohort %d: %v", c, err)
					return
				}
			}
		}(cohort)
	}
	wg.Wait()
	store.Crash()

	l2 := newTestLog(t, store, 1024)
	counts := make(map[uint32]int)
	lastSeq := make(map[uint32]uint64)
	if err := l2.Scan(func(rec Record) error {
		counts[rec.Cohort]++
		// Within a cohort, append order must preserve LSN order.
		if rec.LSN.Seq() <= lastSeq[rec.Cohort] {
			t.Errorf("cohort %d out of order: %d after %d", rec.Cohort, rec.LSN.Seq(), lastSeq[rec.Cohort])
		}
		lastSeq[rec.Cohort] = rec.LSN.Seq()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for c := uint32(0); c < 3; c++ {
		if counts[c] != perCohort {
			t.Errorf("cohort %d recovered %d records, want %d", c, counts[c], perCohort)
		}
	}
}

// countingStore counts the devices a Log holds open.
type countingStore struct {
	SegmentStore
	open int
}

type countedDevice struct {
	Device
	s *countingStore
}

func (s *countingStore) track(d Device, err error) (Device, error) {
	if err != nil {
		return nil, err
	}
	s.open++
	return &countedDevice{d, s}, nil
}

func (s *countingStore) Open(id uint64) (Device, error)   { return s.track(s.SegmentStore.Open(id)) }
func (s *countingStore) Create(id uint64) (Device, error) { return s.track(s.SegmentStore.Create(id)) }

func (d *countedDevice) Close() error {
	d.s.open--
	return d.Device.Close()
}

// TestLogClosesDroppedSegments: a truncation closes the devices of the
// segments it removes (each is a file descriptor on a file store) — at once
// when nothing is reading them, and when the last scan finishes otherwise, so
// that a scan already under way still sees every record of its snapshot.
func TestLogClosesDroppedSegments(t *testing.T) {
	store := &countingStore{SegmentStore: NewMemSegmentStore(DeviceInstant)}
	l := newTestLog(t, store, 64)
	appendTo := func(through uint64) {
		t.Helper()
		for seq := through - 19; seq <= through; seq++ {
			if err := l.AppendForce(writeRec(0, 1, seq, "0123456789abcdef")); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendTo(20)
	segs := l.Segments()
	if segs < 3 || store.open != segs {
		t.Fatalf("%d segments, %d open devices; want ≥3 and equal", segs, store.open)
	}

	seen := 0
	if err := l.Scan(func(Record) error {
		if seen++; seen == 1 {
			dropped, err := l.DropCapturedSegments(map[uint32]LSN{0: MakeLSN(1, 20)})
			if err != nil || len(dropped) != segs-1 {
				t.Fatalf("dropped %v, %v; want %d segments", dropped, err, segs-1)
			}
			if store.open != segs {
				t.Errorf("%d devices open mid-scan, want all %d still readable", store.open, segs)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 20 {
		t.Errorf("scan saw %d records across the truncation, want 20", seen)
	}
	if store.open != 1 {
		t.Errorf("%d devices open after the scan, want 1 (the current segment)", store.open)
	}

	appendTo(40)
	if _, err := l.DropCapturedSegments(map[uint32]LSN{0: MakeLSN(1, 40)}); err != nil {
		t.Fatal(err)
	}
	if store.open != 1 {
		t.Errorf("%d devices open after an unobserved truncation, want 1", store.open)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if store.open != 0 {
		t.Errorf("%d devices open after Close, want 0", store.open)
	}
}

// TestLogUseAfterClose pins the closed flag: a log filled to its roll
// threshold and closed must refuse a late append rather than roll and open a
// segment nobody will close (the descriptor a node shutdown used to leak).
func TestLogUseAfterClose(t *testing.T) {
	store, err := NewFileSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLog(t, store, 64)
	for seq := uint64(1); l.Segments() < 2; seq++ {
		if err := l.AppendForce(writeRec(0, 1, seq, "0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	// The tail segment is now at its threshold: the next append would roll.
	if err := l.AppendForce(writeRec(0, 1, 100, "0123456789abcdef0123456789abcdef0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	before, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(writeRec(0, 1, 101, "late")); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after Close: err = %v, want ErrClosed", err)
	}
	if _, err := l.AppendBatch(batchRecsFor(0, 1, 102, "late-a", "late-b")); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendBatch after Close: err = %v, want ErrClosed", err)
	}
	if err := l.Force(); !errors.Is(err, ErrClosed) {
		t.Errorf("Force after Close: err = %v, want ErrClosed", err)
	}
	if err := l.ForceTo(1 << 40); !errors.Is(err, ErrClosed) {
		t.Errorf("ForceTo after Close: err = %v, want ErrClosed", err)
	}
	after, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("segments after a late append: %v, before Close: %v", after, before)
	}
}
