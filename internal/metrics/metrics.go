// Package metrics provides the cheap instrumentation primitives used by
// the rest of the tree: lock-striped counters, fixed log-bucket latency
// histograms, and a sampling key reservoir. Everything on the write side
// is allocation-free and lock-free (a bounded number of atomic adds per
// operation) so the replication hot path can afford to be observed; the
// read side (snapshots, merges, quantiles) is built for a periodic
// scraper or balancer, not for per-request use.
package metrics

import (
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numStripes is the number of independent cells a Counter spreads its
// adds over. Must be a power of two.
const numStripes = 16

// stripe picks a cell for the calling goroutine. Goroutine stacks are
// distinct allocations, so the address of a stack byte — shifted past
// allocator-alignment noise — spreads concurrent callers across cells
// without needing a goroutine ID or any allocation.
func stripe() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>10) & (numStripes - 1)
}

// cell is a cache-line-padded atomic counter so stripes don't false-share.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a lock-striped monotonic (or signed) counter. Add is one
// atomic add on a stripe chosen per goroutine; Load sums the stripes.
type Counter struct {
	cells [numStripes]cell
}

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	c.cells[stripe()].v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current total. Concurrent adds may or may not be
// included, but no add is ever lost.
func (c *Counter) Load() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Histogram bucket layout: log-linear, 1<<subBits linear sub-buckets per
// power of two. Values 0..2^subBits-1 get exact buckets; above that the
// relative quantile error is bounded by 1/2^(subBits+1) (~6% for
// subBits=3). Values are int64 (the tree records nanoseconds).
const (
	subBits    = 3
	subCount   = 1 << subBits
	numBuckets = (63 - subBits + 1) * subCount
)

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the top set bit, >= subBits
	sub := (u >> uint(exp-subBits)) & (subCount - 1)
	return (exp-subBits+1)<<subBits + int(sub)
}

// bucketBounds returns the [lower, upper) value range of bucket b.
func bucketBounds(b int) (lower, upper int64) {
	if b < subCount {
		return int64(b), int64(b) + 1
	}
	oct := b >> subBits
	sub := int64(b & (subCount - 1))
	width := int64(1) << uint(oct-1)
	lower = (subCount + sub) << uint(oct-1)
	return lower, lower + width
}

// Histogram is a fixed-size log-bucket histogram. Observe is two atomic
// adds (bucket + sum); buckets are plain atomics — concurrent observers
// of the same value contend on one cache line, which is acceptable for
// latency recording.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot captures the histogram's current state. Concurrent Observe
// calls land entirely in either this snapshot or a later one; individual
// buckets are read atomically so counts are never torn or lost.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n != 0 {
			s.Buckets[i] = n
			s.Count += n
		}
	}
	return s
}

// HistSnapshot is an immutable copy of a Histogram, mergeable with
// others using the same (compile-time fixed) bucket layout.
type HistSnapshot struct {
	Buckets [numBuckets]int64
	Count   int64
	Sum     int64
}

// Merge adds other's counts into s.
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	if other == nil {
		return
	}
	for i, n := range other.Buckets {
		s.Buckets[i] += n
	}
	s.Count += other.Count
	s.Sum += other.Sum
}

// Sub subtracts an earlier snapshot, giving the interval histogram.
func (s *HistSnapshot) Sub(earlier *HistSnapshot) {
	if earlier == nil {
		return
	}
	for i, n := range earlier.Buckets {
		s.Buckets[i] -= n
	}
	s.Count -= earlier.Count
	s.Sum -= earlier.Sum
}

// Quantile returns an estimate of the p-quantile (0 < p <= 1) as the
// midpoint of the bucket containing that rank, or 0 for an empty
// snapshot.
func (s *HistSnapshot) Quantile(p float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	rank := int64(p*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)/2
		}
	}
	return 0
}

// Mean returns the exact mean of observed values, or 0 if empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count <= 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// KeySampler keeps a bounded, load-proportional sample of the keys
// passing through a range: every stride-th Note call stores its key in a
// ring, so the ring approximates the recent write distribution. The
// balancer sorts a snapshot of the ring to find the load-weighted median
// split key. The common (unsampled) path is one atomic add.
type KeySampler struct {
	stride int64
	n      atomic.Int64

	mu   sync.Mutex
	ring []string
	next int
	full bool
}

// NewKeySampler samples one of every stride calls into a ring of cap
// keys. stride and cap are clamped to >= 1.
func NewKeySampler(stride int64, capacity int) *KeySampler {
	if stride < 1 {
		stride = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	return &KeySampler{stride: stride, ring: make([]string, capacity)}
}

// Note records one occurrence of key, sampling it if its turn is up. A
// sampled key is cloned: the caller's key may alias a larger buffer (a
// write's request payload), which the ring would otherwise keep alive.
func (s *KeySampler) Note(key string) {
	if s.n.Add(1)%s.stride != 0 {
		return
	}
	key = strings.Clone(key)
	s.mu.Lock()
	s.ring[s.next] = key
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Keys returns a copy of the sampled keys (unordered).
func (s *KeySampler) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.next
	if s.full {
		n = len(s.ring)
	}
	out := make([]string, n)
	copy(out, s.ring[:n])
	return out
}

// MedianKey returns the load-weighted median of the sampled keys: sorted
// by key, the sample at the halfway rank. Because samples arrive in
// proportion to per-key load, this splits the recent load (not the key
// space) in half. Returns false if fewer than min samples exist.
func (s *KeySampler) MedianKey(min int) (string, bool) {
	keys := s.Keys()
	if len(keys) < min || len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	return keys[len(keys)/2], true
}
