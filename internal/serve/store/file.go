package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"streamcover/internal/stream"
)

// ckptExt is the on-disk suffix of one checkpoint, kept byte-compatible
// with the layout the serve package wrote before the store split: a
// FileStore directory is readable by (and from) any earlier scserve.
const ckptExt = ".ckpt"

// FileStore is the atomic-file directory store: one `<token>.ckpt` file
// per checkpoint, written via a same-directory temp file, fsync and
// rename, so a crash mid-Put leaves the previous checkpoint intact and a
// concurrent Get never observes a torn write. It is the durable backend
// scserve runs by default (-store dir).
type FileStore struct {
	dir string
}

// NewFileStore creates (if absent) and opens a checkpoint directory.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, errors.New("store: file store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: checkpoint dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

// String names the backend in wide events and banners.
func (s *FileStore) String() string { return "dir" }

// path is where token's checkpoint lives. Tokens are validated before
// they get here, so the join cannot escape the directory.
func (s *FileStore) path(token string) string {
	return filepath.Join(s.dir, token+ckptExt)
}

// Put atomically writes token's checkpoint and returns the bytes written.
func (s *FileStore) Put(token string, data []byte) (int, error) {
	if err := checkToken(token); err != nil {
		return 0, err
	}
	if err := stream.AtomicWriteFile(s.path(token), data); err != nil {
		return 0, fmt.Errorf("store: put %q: %w", token, err)
	}
	return len(data), nil
}

// Get returns token's checkpoint bytes, or ErrNotFound.
func (s *FileStore) Get(token string) ([]byte, error) {
	if err := checkToken(token); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(token))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, token)
		}
		return nil, fmt.Errorf("store: get %q: %w", token, err)
	}
	return data, nil
}

// Delete removes token's checkpoint, or returns ErrNotFound.
func (s *FileStore) Delete(token string) error {
	if err := checkToken(token); err != nil {
		return err
	}
	if err := os.Remove(s.path(token)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %q", ErrNotFound, token)
		}
		return fmt.Errorf("store: delete %q: %w", token, err)
	}
	return nil
}

// Reserve atomically claims token if no checkpoint file exists: the mint
// marker is staged in a temp file and hard-linked into place — link(2)
// fails with EEXIST when the target exists, which makes the existence
// check and the claim a single atomic filesystem operation even across
// processes sharing the directory. A token whose file already exists loses
// on one Lstat, before paying for a staged and fsynced temp file; link
// still decides races.
func (s *FileStore) Reserve(token string) (bool, error) {
	if err := checkToken(token); err != nil {
		return false, err
	}
	if _, err := os.Lstat(s.path(token)); err == nil {
		return false, nil
	}
	f, err := os.CreateTemp(s.dir, token+".mint*")
	if err != nil {
		return false, fmt.Errorf("store: reserve %q: %w", token, err)
	}
	tmp := f.Name()
	defer os.Remove(tmp)
	if _, err := f.Write(mintMarker); err != nil {
		f.Close()
		return false, fmt.Errorf("store: reserve %q: %w", token, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("store: reserve %q: %w", token, err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("store: reserve %q: %w", token, err)
	}
	if err := os.Link(tmp, s.path(token)); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return false, nil
		}
		return false, fmt.Errorf("store: reserve %q: %w", token, err)
	}
	return true, nil
}

// List returns the tokens holding checkpoints, sorted (operator tooling and
// benchmarks; minting never lists). Stray files —
// in-flight temp files, anything not shaped like `<token>.ckpt` — are
// ignored rather than surfaced, so an interrupted Put can never make the
// store unlistable.
func (s *FileStore) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	tokens := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		token := strings.TrimSuffix(name, ckptExt)
		if ValidToken(token) {
			tokens = append(tokens, token)
		}
	}
	sort.Strings(tokens)
	return tokens, nil
}
