package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A SegmentStore provides the stable storage that holds log segments. The
// log rolls to a new segment when the current one exceeds its size limit;
// old segments are removed once every cohort's records in them have been
// captured to SSTables (paper §6.1).
type SegmentStore interface {
	// List returns existing segment ids in ascending order.
	List() ([]uint64, error)
	// Open opens an existing segment.
	Open(id uint64) (Device, error)
	// Create creates a new, empty segment.
	Create(id uint64) (Device, error)
	// Remove deletes a segment.
	Remove(id uint64) error
}

// MemSegmentStore keeps segments in memory (as MemDevices) and supports the
// crash/failure fault injection used by tests and the simulation harness.
type MemSegmentStore struct {
	profile DeviceProfile

	mu   sync.Mutex
	segs map[uint64]*MemDevice
}

// NewMemSegmentStore returns an empty in-memory segment store whose devices
// use the given latency profile.
func NewMemSegmentStore(profile DeviceProfile) *MemSegmentStore {
	return &MemSegmentStore{profile: profile, segs: make(map[uint64]*MemDevice)}
}

// List implements SegmentStore.
func (s *MemSegmentStore) List() ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.segs))
	for id := range s.segs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Open implements SegmentStore.
func (s *MemSegmentStore) Open(id uint64) (Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.segs[id]
	if !ok {
		return nil, fmt.Errorf("wal: segment %d does not exist", id)
	}
	// The device outlives the Log that closed it (a node restarted over the
	// same stores): opening it again makes it usable, as with a file.
	d.mu.Lock()
	d.closed = false
	d.mu.Unlock()
	return d, nil
}

// Create implements SegmentStore.
func (s *MemSegmentStore) Create(id uint64) (Device, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segs[id]; ok {
		return nil, fmt.Errorf("wal: segment %d already exists", id)
	}
	d := NewMemDevice(s.profile)
	s.segs[id] = d
	return d, nil
}

// Remove implements SegmentStore.
func (s *MemSegmentStore) Remove(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.segs, id)
	return nil
}

// Crash simulates a node crash: every segment loses its unforced tail.
func (s *MemSegmentStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.segs {
		d.Crash()
	}
}

// Fail simulates a permanent disk failure: all segments are destroyed, as
// in §6.1 ("the follower has lost all its data because of a disk failure").
func (s *MemSegmentStore) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.segs = make(map[uint64]*MemDevice)
}

// TotalForces sums the medium force counts over all segments; used by the
// group-commit ablation bench.
func (s *MemSegmentStore) TotalForces() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, d := range s.segs {
		n += d.Forces()
	}
	return n
}

// FileSegmentStore keeps each segment as a file named seg-<id>.log inside a
// directory. cmd/spinnaker-server uses it for durable single-box nodes.
type FileSegmentStore struct {
	dir string
}

// NewFileSegmentStore returns a store rooted at dir, creating it if needed.
func NewFileSegmentStore(dir string) (*FileSegmentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	return &FileSegmentStore{dir: dir}, nil
}

func (s *FileSegmentStore) path(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%012d.log", id))
}

// List implements SegmentStore.
func (s *FileSegmentStore) List() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Open implements SegmentStore.
func (s *FileSegmentStore) Open(id uint64) (Device, error) {
	return OpenFileDevice(s.path(id))
}

// Create implements SegmentStore.
func (s *FileSegmentStore) Create(id uint64) (Device, error) {
	if _, err := os.Stat(s.path(id)); err == nil {
		return nil, fmt.Errorf("wal: segment %d already exists", id)
	}
	return OpenFileDevice(s.path(id))
}

// Remove implements SegmentStore.
func (s *FileSegmentStore) Remove(id uint64) error {
	return os.Remove(s.path(id))
}

var (
	_ SegmentStore = (*MemSegmentStore)(nil)
	_ SegmentStore = (*FileSegmentStore)(nil)
)
