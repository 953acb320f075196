package sstable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A TableStore is the stable storage holding SSTable blobs. Unlike the
// memtable, SSTables survive crashes; the in-memory implementation models a
// disk that only loses data under the explicit disk-failure injection of
// §6.1.
//
// Put takes ownership of blob: the caller never writes it again, so a store
// may keep the slice itself, and Get may return that same array to every
// reader, who must not write it either. Builder.Finish, WriteSorted and
// Compact output is never written after it is built.
type TableStore interface {
	Put(id uint64, blob []byte) error
	Get(id uint64) ([]byte, error)
	Remove(id uint64) error
	List() ([]uint64, error)
}

// MemTableStore is an in-memory TableStore with disk-failure injection.
type MemTableStore struct {
	mu sync.Mutex
	m  map[uint64][]byte
}

// NewMemTableStore returns an empty store.
func NewMemTableStore() *MemTableStore {
	return &MemTableStore{m: make(map[uint64][]byte)}
}

// Put implements TableStore, keeping blob itself.
func (s *MemTableStore) Put(id uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[id] = blob
	return nil
}

// Get implements TableStore.
func (s *MemTableStore) Get(id uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[id]
	if !ok {
		return nil, fmt.Errorf("sstable: table %d does not exist", id)
	}
	return b, nil
}

// Remove implements TableStore.
func (s *MemTableStore) Remove(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
	return nil
}

// List implements TableStore.
func (s *MemTableStore) List() ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.m))
	for id := range s.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Fail destroys every table (permanent disk failure, §6.1).
func (s *MemTableStore) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = make(map[uint64][]byte)
}

// FileTableStore stores each table as sst-<id>.sst in a directory.
type FileTableStore struct {
	dir string
}

// NewFileTableStore returns a store rooted at dir, creating it if needed.
func NewFileTableStore(dir string) (*FileTableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sstable: mkdir %s: %w", dir, err)
	}
	return &FileTableStore{dir: dir}, nil
}

func (s *FileTableStore) path(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("sst-%012d.sst", id))
}

// Put implements TableStore using write-then-rename for atomicity.
func (s *FileTableStore) Put(id uint64, blob []byte) error {
	tmp := s.path(id) + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("sstable: put: %w", err)
	}
	return os.Rename(tmp, s.path(id))
}

// Get implements TableStore.
func (s *FileTableStore) Get(id uint64) ([]byte, error) {
	b, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("sstable: get %d: %w", id, err)
	}
	return b, nil
}

// Remove implements TableStore.
func (s *FileTableStore) Remove(id uint64) error {
	err := os.Remove(s.path(id))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements TableStore.
func (s *FileTableStore) List() ([]uint64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("sstable: list: %w", err)
	}
	var ids []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "sst-") || !strings.HasSuffix(name, ".sst") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "sst-"), ".sst"), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

var (
	_ TableStore = (*MemTableStore)(nil)
	_ TableStore = (*FileTableStore)(nil)
)
