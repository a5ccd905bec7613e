package serve

import (
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/serve/store"
	"streamcover/internal/stream"
)

// The serve package is the transport layer of a three-layer stack — see
// the package documentation. The session state machine lives in
// internal/serve/lifecycle and checkpoint persistence in
// internal/serve/store; the aliases below keep this package's surface the
// one-stop API it has always been, so callers (scserve, scfeed, the root
// streamcover exports) import exactly one serving package.

// Config is the shape of one session's algorithm. See lifecycle.Config.
type Config = lifecycle.Config

// Result is a finished session's complete observable output, including
// its golden Fingerprint. See lifecycle.Result.
type Result = lifecycle.Result

// Manager owns the server's multi-tenant session state. See
// lifecycle.Manager.
type Manager = lifecycle.Manager

// Session is one running algorithm instance and its ingest buffer. See
// lifecycle.Session.
type Session = lifecycle.Session

// CheckpointStore persists detach checkpoints. See store.CheckpointStore.
type CheckpointStore = store.CheckpointStore

// StoreServer serves a CheckpointStore over the SCSTOR1 protocol. See
// store.StoreServer.
type StoreServer = store.StoreServer

// MaxBatch is the largest number of edges one edges frame may carry.
const MaxBatch = lifecycle.MaxBatch

// Typed session-layer errors, re-exported so transport callers keep a
// single import.
var (
	// ErrSessionActive reports a hello or resume naming a token that is
	// currently attached to another connection.
	ErrSessionActive = lifecycle.ErrSessionActive
	// ErrUnknownSession reports a resume naming a token with no checkpoint
	// in the store.
	ErrUnknownSession = lifecycle.ErrUnknownSession
	// ErrToken reports a client-chosen session token outside the
	// filename-safe alphabet.
	ErrToken = lifecycle.ErrToken
	// ErrCheckpointNotFound is the store layer's typed not-found error.
	ErrCheckpointNotFound = store.ErrNotFound
)

// Algorithms lists the served algorithm names, sorted.
func Algorithms() []string { return lifecycle.Algorithms() }

// Build constructs the algorithm for cfg. See lifecycle.Build.
func Build(cfg Config) (stream.Algorithm, error) { return lifecycle.Build(cfg) }

// NewManager creates a session manager persisting detach checkpoints in
// st. so may be nil to disable instrumentation.
func NewManager(st store.CheckpointStore, so *obs.ServeObs) (*Manager, error) {
	return lifecycle.NewManager(st, so)
}

// NewFileStore opens (creating if absent) the atomic-file directory store
// — the durable backend, byte-compatible with the pre-store `<token>.ckpt`
// layout.
func NewFileStore(dir string) (*store.FileStore, error) { return store.NewFileStore(dir) }

// NewMemStore returns the in-process checkpoint store: dirless and fast
// for tests, non-durable across processes.
func NewMemStore() *store.MemStore { return store.NewMemStore() }

// NewClusterStore returns the shared cluster store client: a
// CheckpointStore speaking SCSTOR1 to a store server every shard reaches,
// which is what lets any shard adopt any session's checkpoint. timeout
// bounds each round trip (0 picks store.DefaultStoreTimeout).
func NewClusterStore(addr string, timeout time.Duration) *store.ClusterStore {
	return store.NewClusterStore(addr, timeout)
}

// NewStoreServer wraps a backing store for SCSTOR1 network service — the
// shared-store side of the cluster tier.
func NewStoreServer(backing store.CheckpointStore) (*store.StoreServer, error) {
	return store.NewStoreServer(backing)
}
