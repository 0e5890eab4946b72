// Package objstore provides the distributed object storage substrate ArkFS
// runs on: a backend-agnostic Store interface (the REST verb set), a simple
// in-memory implementation for unit tests, a simulated multi-node replicated
// cluster with latency/bandwidth models for the benchmark figures, and a real
// HTTP REST gateway pair proving the PRT "register your REST API" story.
package objstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"arkfs/internal/types"
)

// Store is the object storage interface: what ArkFS's PRT module requires
// from any backend (Ceph RADOS, S3, ...). Keys are flat strings; values are
// immutable blobs replaced wholesale by Put.
//
// The bytes move once in each direction, and a buffer that has changed hands
// is never written again (DESIGN.md §5.8). Put takes ownership of data: the
// caller does not write it afterwards, and the store may keep it as the
// stored value. Get and GetRange lend: the slice they return may be the
// stored value itself, clipped to len == cap, and the caller only reads it.
type Store interface {
	// Put stores data under key, replacing any previous value. The store
	// owns data from the call on.
	Put(key string, data []byte) error
	// Get returns the value stored under key, read-only, or ErrNotExist.
	Get(key string) ([]byte, error)
	// GetRange returns n bytes starting at off (clipped to the object size),
	// read-only, so clients can fetch large objects in parallel parts.
	GetRange(key string, off, n int64) ([]byte, error)
	// Delete removes key. Deleting a missing key is not an error, matching
	// object-store semantics (DELETE is idempotent).
	Delete(key string) error
	// List returns the keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Head returns the size of the value under key, or ErrNotExist.
	Head(key string) (int64, error)
}

// ErrNotExist reports a missing object, wrapping the shared type so callers
// can errors.Is against types.ErrNotExist.
var ErrNotExist = fmt.Errorf("objstore: object not found: %w", types.ErrNotExist)

// MemStore is a trivial threadsafe in-memory Store used by unit tests and
// the quickstart example. It has no latency model.
type MemStore struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string][]byte)}
}

// Put implements Store: it keeps data itself.
func (s *MemStore) Put(key string, data []byte) error {
	data = owned(data)
	s.mu.Lock()
	s.data[key] = data
	s.mu.Unlock()
	return nil
}

// owned is what a store keeps of a buffer handed to Put: the buffer itself
// when it is tight (cap == len), else a copy of exactly its length. Keeping
// a buffer's spare capacity would pin it for as long as the object lives: a
// small file's power-of-two cache buffer, or an encoder's doubled one.
func owned(data []byte) []byte {
	if cap(data) == len(data) {
		return data
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp
}

// Get implements Store: it lends the stored value.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("get %q: %w", key, ErrNotExist)
	}
	return v, nil
}

// GetRange implements Store.
func (s *MemStore) GetRange(key string, off, n int64) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("getrange %q: %w", key, ErrNotExist)
	}
	return clipRange(v, off, n), nil
}

// clipRange is the [off, off+n) window of v, clipped to its bounds and to
// len == cap: a lent window, not a copy.
func clipRange(v []byte, off, n int64) []byte {
	if off < 0 || off >= int64(len(v)) || n <= 0 {
		return nil
	}
	end := min(off+n, int64(len(v)))
	return v[off:end:end]
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	delete(s.data, key)
	s.mu.Unlock()
	return nil
}

// List implements Store.
func (s *MemStore) List(prefix string) ([]string, error) {
	s.mu.RLock()
	var keys []string
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Head implements Store.
func (s *MemStore) Head(key string) (int64, error) {
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("head %q: %w", key, ErrNotExist)
	}
	return int64(len(v)), nil
}

// Len returns the number of stored objects.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}
