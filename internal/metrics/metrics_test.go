package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

func TestBucketLayout(t *testing.T) {
	// Buckets tile the value space: each value lands in a bucket whose
	// bounds contain it, and bucket indexes are monotonic in the value.
	prev := -1
	for _, v := range []int64{0, 1, 7, 8, 9, 15, 16, 17, 100, 1000, 4095, 4096, 1 << 20, 1 << 40, 1<<62 + 12345} {
		b := bucketOf(v)
		lo, hi := bucketBounds(b)
		if v < lo || v >= hi {
			t.Fatalf("value %d in bucket %d with bounds [%d,%d)", v, b, lo, hi)
		}
		if b < prev {
			t.Fatalf("bucket index not monotonic at value %d", v)
		}
		prev = b
	}
	if bucketOf(-5) != 0 {
		t.Fatalf("negative values should clamp to bucket 0")
	}
}

func TestQuantileAccuracy(t *testing.T) {
	// Log-linear buckets with 8 sub-buckets per octave bound relative
	// quantile error by ~1/16; allow 8% plus a small absolute slack.
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform":     func() int64 { return rng.Int63n(1_000_000) },
		"exponential": func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"constant":    func() int64 { return 777 },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 900_000 + rng.Int63n(1000)
			}
			return 100 + rng.Int63n(50)
		},
	}
	for name, gen := range dists {
		var h Histogram
		vals := make([]int64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := gen()
			vals = append(vals, v)
			h.Observe(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		if s.Count != int64(len(vals)) {
			t.Fatalf("%s: snapshot count %d != %d", name, s.Count, len(vals))
		}
		for _, p := range []float64{0.50, 0.95, 0.99} {
			exact := vals[int(p*float64(len(vals)-1))]
			got := s.Quantile(p)
			diff := float64(got - exact)
			if diff < 0 {
				diff = -diff
			}
			if diff > 0.08*float64(exact)+2 {
				t.Errorf("%s p%d: got %d, exact %d (err %.1f%%)",
					name, int(p*100), got, exact, 100*diff/float64(exact+1))
			}
		}
		var wantSum int64
		for _, v := range vals {
			wantSum += v
		}
		if s.Sum != wantSum {
			t.Fatalf("%s: sum %d != %d", name, s.Sum, wantSum)
		}
	}
}

func TestSnapshotMergeSub(t *testing.T) {
	var a, b Histogram
	for i := int64(0); i < 1000; i++ {
		a.Observe(i)
		b.Observe(i * 3)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	if merged.Count != 2000 {
		t.Fatalf("merged count %d", merged.Count)
	}
	merged.Sub(a.Snapshot())
	if merged.Count != 1000 || merged.Sum != b.Snapshot().Sum {
		t.Fatalf("sub gave count=%d sum=%d", merged.Count, merged.Sum)
	}
}

func TestCounterConcurrent(t *testing.T) {
	// Parallel writers with a concurrent reader: no add may be lost and
	// the monotonic counter must never appear to go backwards.
	var c Counter
	const writers, perWriter = 8, 20000
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := c.Load()
			if v < last {
				t.Errorf("counter went backwards: %d -> %d", last, v)
				return
			}
			last = v
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if got := c.Load(); got != writers*perWriter {
		t.Fatalf("lost counts: %d != %d", got, writers*perWriter)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Parallel observers vs concurrent snapshots: the final snapshot
	// must contain every observation with an exact sum, and snapshots
	// taken mid-flight must never report more than observed so far.
	var h Histogram
	const writers, perWriter = 8, 10000
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count > writers*perWriter {
				t.Errorf("snapshot overcounted: %d", s.Count)
				return
			}
			_ = s.Quantile(0.95)
		}
	}()
	var wantSum int64
	var sumMu sync.Mutex
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			var local int64
			for i := 0; i < perWriter; i++ {
				v := rng.Int63n(1 << 30)
				local += v
				h.Observe(v)
			}
			sumMu.Lock()
			wantSum += local
			sumMu.Unlock()
		}(int64(w))
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("lost observations: %d != %d", s.Count, writers*perWriter)
	}
	if s.Sum != wantSum {
		t.Fatalf("torn sum: %d != %d", s.Sum, wantSum)
	}
}

func TestKeySamplerConcurrent(t *testing.T) {
	s := NewKeySampler(4, 256)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Keys()
			_, _ = s.MedianKey(8)
		}
	}()
	var writerWG sync.WaitGroup
	for w := 0; w < 8; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < 5000; i++ {
				s.Note(fmt.Sprintf("key-%03d", i%100))
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	keys := s.Keys()
	if len(keys) != 256 {
		t.Fatalf("ring should be full: %d", len(keys))
	}
	med, ok := s.MedianKey(8)
	if !ok || med < "key-000" || med > "key-099" {
		t.Fatalf("median %q ok=%v", med, ok)
	}
}

// TestKeySamplerClonesKeys: a noted key may alias a buffer its caller reuses
// or frees (a row decoded in place from a request payload); the sample must
// keep the key as it was noted.
func TestKeySamplerClonesKeys(t *testing.T) {
	s := NewKeySampler(1, 4)
	buf := []byte("row-00042")
	s.Note(unsafe.String(&buf[0], len(buf)))
	copy(buf, "XXXXXXXXX")
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "row-00042" {
		t.Fatalf("Keys() = %q after the noted key's buffer changed, want [row-00042]", keys)
	}
}

func TestKeySamplerMedianWeighted(t *testing.T) {
	// 90% of load on key-9x keys: the median must land in the hot region
	// even though the cold keys cover most of the key space.
	s := NewKeySampler(1, 1024)
	for i := 0; i < 900; i++ {
		s.Note(fmt.Sprintf("key-9%d", i%10))
	}
	for i := 0; i < 100; i++ {
		s.Note(fmt.Sprintf("key-%04d", i))
	}
	med, ok := s.MedianKey(10)
	if !ok {
		t.Fatal("no median")
	}
	if med < "key-9" {
		t.Fatalf("median %q not load-weighted into the hot region", med)
	}
}
