package gridsim

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Store errors.
var (
	ErrQuota      = errors.New("gridsim: storage quota exceeded")
	ErrNoFile     = errors.New("gridsim: no such staged file")
	ErrEmptyName  = errors.New("gridsim: file name required")
	ErrEmptyOwner = errors.New("gridsim: owner identity required")
	ErrFileTooBig = errors.New("gridsim: staged file exceeds per-file limit")
)

// Default store limits.
const (
	DefaultOwnerQuota = 512 << 20 // per-owner staged bytes
	DefaultFileLimit  = 256 << 20 // per-file bytes
)

// Store is a site's staging area: the GridFTP target where executables
// and input files land before jobs reference them. Files are namespaced
// by owner identity (the DN the transfer authenticated as).
type Store struct {
	ownerQuota int
	fileLimit  int

	mu    sync.RWMutex
	files map[string]map[string][]byte // owner -> name -> data
	used  map[string]int               // owner -> bytes
}

// NewStore returns an empty staging area with default limits.
func NewStore() *Store {
	return NewStoreWithLimits(DefaultOwnerQuota, DefaultFileLimit)
}

// NewStoreWithLimits returns a staging area with explicit limits
// (non-positive values fall back to the defaults).
func NewStoreWithLimits(ownerQuota, fileLimit int) *Store {
	if ownerQuota <= 0 {
		ownerQuota = DefaultOwnerQuota
	}
	if fileLimit <= 0 {
		fileLimit = DefaultFileLimit
	}
	return &Store{
		ownerQuota: ownerQuota,
		fileLimit:  fileLimit,
		files:      make(map[string]map[string][]byte),
		used:       make(map[string]int),
	}
}

// Put stores data under (owner, name), replacing any previous version.
func (s *Store) Put(owner, name string, data []byte) error {
	if owner == "" {
		return ErrEmptyOwner
	}
	if name == "" {
		return ErrEmptyName
	}
	if len(data) > s.fileLimit {
		return ErrFileTooBig
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.files[owner]
	if dir == nil {
		dir = make(map[string][]byte)
		s.files[owner] = dir
	}
	newUsed := s.used[owner] - len(dir[name]) + len(data)
	if newUsed > s.ownerQuota {
		return fmt.Errorf("%w: %d bytes for %s", ErrQuota, newUsed, owner)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	dir[name] = cp
	s.used[owner] = newUsed
	return nil
}

// Get returns a copy of the file.
func (s *Store) Get(owner, name string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[owner][name]
	if !ok {
		return nil, fmt.Errorf("%w: %s for %s", ErrNoFile, name, owner)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Size returns the stored size without copying.
func (s *Store) Size(owner, name string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.files[owner][name]
	if !ok {
		return 0, fmt.Errorf("%w: %s for %s", ErrNoFile, name, owner)
	}
	return len(data), nil
}

// Delete removes a file.
func (s *Store) Delete(owner, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.files[owner]
	data, ok := dir[name]
	if !ok {
		return fmt.Errorf("%w: %s for %s", ErrNoFile, name, owner)
	}
	delete(dir, name)
	s.used[owner] -= len(data)
	return nil
}

// List returns the owner's staged file names, sorted.
func (s *Store) List(owner string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir := s.files[owner]
	out := make([]string, 0, len(dir))
	for n := range dir {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
