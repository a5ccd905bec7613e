// Package store is the persistence layer of the serving stack: a
// CheckpointStore holds the SCCKPT1 detach checkpoints that carry
// sessions across disconnects, server restarts and — in the cluster tier
// this package seeds — across shard boundaries. The lifecycle layer
// (internal/serve/lifecycle) serializes and restores checkpoints; a store
// only moves opaque bytes keyed by session token, which is exactly what
// lets the same Manager run against a local directory today and a
// replicated cluster store tomorrow.
//
// Two implementations ship here: FileStore, byte-compatible with the
// original `<token>.ckpt` atomic-file directory layout, and MemStore, a
// process-local map used by the serve tests (dirless and fast) and as the
// seed of the in-memory cluster store.
package store

import (
	"errors"
	"fmt"
)

// ErrNotFound reports a Get or Delete naming a token with no checkpoint in
// the store. It is the typed not-found error every implementation must
// return (wrapped or bare), so the lifecycle layer can distinguish "never
// detached here" from real storage failures.
var ErrNotFound = errors.New("store: checkpoint not found")

// errInvalidToken is the typed cause behind every token-validation
// failure, so the cluster protocol can carry the class across the wire.
var errInvalidToken = errors.New("invalid session token")

// CheckpointStore persists one checkpoint blob per session token. The
// contract every implementation must honor (pinned by the shared
// conformance suite in this package's tests):
//
//   - Put stores data under token, atomically replacing any previous
//     checkpoint: a reader never observes a torn write, and a crash
//     mid-Put leaves the previous checkpoint intact. It returns the number
//     of bytes written — the caller's authoritative checkpoint size, so no
//     re-stat is needed (or possible: the bytes may not live on a
//     filesystem at all).
//   - Get returns the stored bytes, or an error wrapping ErrNotFound. The
//     returned slice is the caller's to keep: mutating it must not corrupt
//     the store, and a later Put must not mutate it.
//   - Delete removes the token's checkpoint, or returns an error wrapping
//     ErrNotFound if there is none.
//   - Reserve atomically claims token if and only if nothing is stored
//     under it, returning whether this caller won, by storing the mint
//     marker there. Server-minted tokens come from Reserve alone: several
//     shards minting against one shared store race through it and exactly
//     one wins, and a restarted server walking its counter from zero loses
//     on every token that still holds a checkpoint. The reservation is a
//     real stored blob; it occupies the token for Get and later Reserves
//     until the session checkpoints over it or Finishes (which Deletes it).
//
// Tokens are validated by ValidToken; implementations must reject anything
// else so a hostile token can never escape a directory or collide with
// internal names. Implementations must be safe for concurrent use: the
// lifecycle manager calls into the store from every connection handler.
type CheckpointStore interface {
	Put(token string, data []byte) (int, error)
	Get(token string) ([]byte, error)
	Delete(token string) error
	Reserve(token string) (bool, error)
}

// ValidToken accepts filename-safe session tokens only ([A-Za-z0-9._-],
// no leading dot, at most 64 bytes), so a token can never escape a
// FileStore's directory or collide with its temp files. The lifecycle
// layer applies the same rule to client-chosen tokens before they reach
// any store.
func ValidToken(t string) bool {
	if t == "" || len(t) > 64 || t[0] == '.' {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// mintMarker is the blob a Reserve stores to occupy a freshly minted
// token before its first checkpoint. It is deliberately not a valid
// SCCKPT1 envelope: a Resume that Gets it knows the session never
// detached and reports unknown-session instead of feeding garbage to the
// checkpoint decoder.
var mintMarker = []byte("SCMINT1\n")

// MintMarker returns a fresh copy of the mint-reservation blob.
func MintMarker() []byte {
	return append([]byte(nil), mintMarker...)
}

// IsMintMarker reports whether blob is a mint reservation rather than a
// real checkpoint.
func IsMintMarker(blob []byte) bool {
	return len(blob) == len(mintMarker) && string(blob) == string(mintMarker)
}

// checkToken is the shared Put/Get/Delete/Reserve guard.
func checkToken(token string) error {
	if !ValidToken(token) {
		return fmt.Errorf("store: %w %q", errInvalidToken, token)
	}
	return nil
}
