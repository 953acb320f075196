// Package memtable implements the sorted in-memory table that committed
// writes are applied to before being flushed to SSTables (paper §4.1). It
// is a skiplist keyed by (row, column), safe for concurrent readers and
// writers, tracking the LSN range of the writes it holds so flushes can tag
// SSTables with min/max LSNs (paper §6.1).
package memtable

import (
	"math/rand"
	"sync"

	"spinnaker/internal/kv"
	"spinnaker/internal/wal"
)

const maxLevel = 16

type node struct {
	entry kv.Entry
	next  []*node
}

// Arena chunk sizes, in nodes: the first chunk is small, so a range that
// sees a handful of writes before its flush pins almost nothing, and each
// later one doubles up to the cap.
const (
	minChunkNodes = 32
	maxChunkNodes = 1024
)

// arena carves a memtable's nodes and their towers out of chunks the
// memtable owns, so a new key costs no allocation of its own. Nodes are
// never freed one at a time: a chunk lives as long as any node in it is
// linked, which is as long as the memtable.
type arena struct {
	nodes []node  // the current node chunk's unused tail
	ptrs  []*node // the current tower chunk's unused tail
	chunk int     // nodes in the current chunk
}

// newNode returns a zeroed node with a tower of lvl links.
func (a *arena) newNode(lvl int) *node {
	if len(a.nodes) == 0 {
		a.chunk = min(max(2*a.chunk, minChunkNodes), maxChunkNodes)
		a.nodes = make([]node, a.chunk)
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	if len(a.ptrs) < lvl {
		// A tower has 2 links on average (randomLevel halves each level).
		a.ptrs = make([]*node, max(2*a.chunk, maxLevel))
	}
	n.next = a.ptrs[:lvl:lvl]
	a.ptrs = a.ptrs[lvl:]
	return n
}

// Memtable is a concurrent sorted map from kv.Key to kv.Cell.
// The zero value is not usable; call New.
type Memtable struct {
	mu     sync.RWMutex
	head   *node
	arena  arena // guarded by mu's write lock
	level  int
	len    int
	bytes  int64
	rng    *rand.Rand
	minLSN wal.LSN
	maxLSN wal.LSN
	sealed bool
}

// New returns an empty memtable.
func New() *Memtable {
	return &Memtable{
		head: &node{next: make([]*node, maxLevel)},
		rng:  rand.New(rand.NewSource(0x5717BAC0)), // deterministic shape for reproducible tests
	}
}

func (m *Memtable) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && m.rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// findPredecessors fills update[i] with the rightmost node at level i whose
// key is < key; callers hold at least a read lock (write lock to mutate).
func (m *Memtable) findPredecessors(key kv.Key, update []*node) *node {
	x := m.head
	for i := m.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].entry.Key.Less(key) {
			x = x.next[i]
		}
		if update != nil {
			update[i] = x
		}
	}
	return x
}

// Apply inserts or replaces the cell for key. A newer cell (per
// kv.Cell.Newer) replaces an older one; an older arrival is ignored, making
// Apply idempotent under the redo of local recovery (paper §6.1: replay
// "is done in an idempotent way"). A new key's node comes from the arena;
// a replaced cell allocates nothing.
//
//spinnaker:hotpath
func (m *Memtable) Apply(key kv.Key, cell kv.Cell) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sealed {
		// A write after sealing would silently miss the SSTable being
		// built from this memtable — the engine's layering is broken.
		panic("memtable: Apply to a sealed memtable")
	}

	update := make([]*node, maxLevel)
	for i := m.level; i < maxLevel; i++ {
		update[i] = m.head
	}
	x := m.findPredecessors(key, update)
	if cand := x.next[0]; cand != nil && cand.entry.Key.Compare(key) == 0 {
		if cell.Newer(cand.entry.Cell) {
			m.bytes += int64(len(cell.Value) - len(cand.entry.Cell.Value))
			// The key is taken too: a caller's key and value may alias
			// the buffer the write arrived in, and the old key would keep
			// the old buffer alive beside the new one.
			cand.entry = kv.Entry{Key: key, Cell: cell}
			m.noteLSN(cell.LSN)
		}
		return
	}

	lvl := m.randomLevel()
	if lvl > m.level {
		m.level = lvl
	}
	n := m.arena.newNode(lvl)
	n.entry = kv.Entry{Key: key, Cell: cell}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
	m.len++
	m.bytes += int64(len(key.Row) + len(key.Col) + len(cell.Value) + 32)
	m.noteLSN(cell.LSN)
}

func (m *Memtable) noteLSN(lsn wal.LSN) {
	if lsn.IsZero() {
		return
	}
	if m.minLSN.IsZero() || lsn < m.minLSN {
		m.minLSN = lsn
	}
	if lsn > m.maxLSN {
		m.maxLSN = lsn
	}
}

// Seal marks the memtable immutable. The storage engine seals the active
// memtable before queueing it for a flush: reads keep consulting it while
// the SSTable is built off-lock, but any late Apply — which would vanish
// from the flushed image — panics instead of corrupting the layering.
func (m *Memtable) Seal() {
	m.mu.Lock()
	m.sealed = true
	m.mu.Unlock()
}

// Get returns the cell for key. Tombstones are returned with ok=true and
// Cell.Deleted set; the storage engine decides how to surface them.
func (m *Memtable) Get(key kv.Key) (kv.Cell, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	x := m.findPredecessors(key, nil)
	if cand := x.next[0]; cand != nil && cand.entry.Key.Compare(key) == 0 {
		return cand.entry.Cell, true
	}
	return kv.Cell{}, false
}

// Len returns the number of distinct keys.
func (m *Memtable) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.len
}

// Bytes returns the approximate memory footprint, used to decide when to
// flush.
func (m *Memtable) Bytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// LSNRange returns the min and max LSN of the applied writes.
func (m *Memtable) LSNRange() (min, max wal.LSN) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.minLSN, m.maxLSN
}

// Ascend calls fn for every entry in key order until fn returns false.
// The callback must not mutate the table.
func (m *Memtable) Ascend(fn func(e kv.Entry) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for x := m.head.next[0]; x != nil; x = x.next[0] {
		if !fn(x.entry) {
			return
		}
	}
}

// AscendRow calls fn for every column of row in column order.
func (m *Memtable) AscendRow(row string, fn func(e kv.Entry) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	start := kv.Key{Row: row}
	x := m.findPredecessors(start, nil)
	for x = x.next[0]; x != nil && x.entry.Key.Row == row; x = x.next[0] {
		if !fn(x.entry) {
			return
		}
	}
}
