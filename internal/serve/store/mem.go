package store

import (
	"fmt"
	"sync"
)

// MemStore keeps checkpoints in process memory: the dirless backend the
// serve tests run on, and the seed of the cluster store — a shard that
// hands its MemStore (or a replicated equivalent) to a successor lets the
// successor adopt every detached session without a filesystem in between.
// Checkpoints do not survive the process; scserve -store mem says so at
// startup.
//
// Both Put and Get copy, so a caller mutating its slice after the call —
// the lifecycle layer reuses its serialization buffer — can never corrupt
// a stored checkpoint, and a stored checkpoint handed out twice can never
// alias.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string][]byte)}
}

// String names the backend in wide events and banners.
func (s *MemStore) String() string { return "mem" }

// Put stores a copy of data under token and returns the bytes written.
func (s *MemStore) Put(token string, data []byte) (int, error) {
	if err := checkToken(token); err != nil {
		return 0, err
	}
	blob := make([]byte, len(data))
	copy(blob, data)
	s.mu.Lock()
	s.blobs[token] = blob
	s.mu.Unlock()
	return len(blob), nil
}

// Get returns a copy of token's checkpoint, or ErrNotFound.
func (s *MemStore) Get(token string) ([]byte, error) {
	if err := checkToken(token); err != nil {
		return nil, err
	}
	s.mu.RLock()
	blob, ok := s.blobs[token]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, token)
	}
	out := make([]byte, len(blob))
	copy(out, blob)
	return out, nil
}

// Delete removes token's checkpoint, or returns ErrNotFound.
func (s *MemStore) Delete(token string) error {
	if err := checkToken(token); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[token]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, token)
	}
	delete(s.blobs, token)
	return nil
}

// Reserve atomically claims token if nothing is stored under it, by
// storing the mint marker under the write lock — the check and the claim
// are one critical section, so concurrent minters of the same token get
// exactly one winner.
func (s *MemStore) Reserve(token string) (bool, error) {
	if err := checkToken(token); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[token]; ok {
		return false, nil
	}
	s.blobs[token] = MintMarker()
	return true, nil
}
