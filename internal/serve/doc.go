// Package serve turns the streaming set cover library into a network
// service: a TCP server that accepts edge-arrival streams over the SCWIRE1
// wire protocol, a multi-tenant session manager that runs one of the served
// streaming algorithms per session on the library's zero-allocation batch
// path, and a deterministic client used both by the scfeed CLI and as the
// test/load harness.
//
// # Layering
//
// The serving stack is three packages; this one is the transport:
//
//   - internal/serve/store persists opaque checkpoint blobs keyed by
//     session token behind the CheckpointStore interface (FileStore for
//     the durable `<token>.ckpt` directory, MemStore for dirless runs).
//   - internal/serve/lifecycle owns the session state machine — open,
//     resume, detach, finish, drain — plus the algorithm registry and each
//     session's ingest buffer. It imports neither net nor os.
//   - this package speaks SCWIRE1 over TCP, decoding edge frames straight
//     into the buffer Session.Reserve returns and mapping lifecycle errors
//     onto wire error codes. Type aliases in serve.go re-export the
//     lifecycle/store surface so consumers import one package.
//
// The edge-arrival model the paper studies is exactly what a network
// ingestion path looks like — (S, u) tuples arriving one at a time with no
// control over order — and the tight per-session space bounds are what make
// thousands of concurrent low-memory sessions per process feasible.
//
// # Wire protocol (SCWIRE1)
//
// A connection opens with the 8-byte magic "SCWIRE1\n" from the client.
// Everything after the magic is a sequence of frames, each length-prefixed
// and CRC-guarded in the framing internal/frame implements for every
// serving protocol:
//
//	frame   = u32 LE payload length | payload | u32 LE CRC-32 (IEEE) of payload
//	payload = type byte | body
//
// Client→server frame types: hello (open a new session), edges (one batch
// of uvarint-encoded (set, elem) pairs, the same varint edge encoding as
// the SCSTRM1 file codec, coded by stream.AppendEdges and
// stream.DecodeEdges), flush (request a position ack once everything
// queued so far has been processed), finish (finish the algorithm and
// return the result), resume (reattach to a detached session from its
// SCCKPT1 checkpoint), and detach (graceful disconnect: checkpoint now and
// acknowledge before the client drops the connection).
//
// Server→client frame types: hello-ack (session token + starting
// position), pos-ack (flush/detach acknowledgement), result (edges
// processed, cover, certificate, space meters), and error (code + message;
// the code distinguishes a checkpoint/shape mismatch from generic
// failures so clients can exit with a typed error).
//
// # Session lifecycle and resume semantics
//
// Each connection owns at most one session, and its goroutine is the only
// one the session runs on: the connection reader decodes each edge batch
// into the session's reusable buffer and applies it to the algorithm via
// ProcessBatch — the same zero-allocation batch path as the file driver,
// so the server's steady state allocates nothing per edge batch. While a
// batch is being processed the reader does not read, so a slow algorithm
// fills the socket buffers and TCP pushes back on the client.
//
// On any disconnect — abrupt drop, read timeout, explicit detach, or
// server drain on SIGTERM — every batch already read has been applied, and
// the session persists an SCCKPT1 checkpoint (internal/snap discipline,
// via stream.WriteCheckpointTraced, serialized to bytes and handed to the
// configured CheckpointStore) at the exact position it consumed. A
// reconnecting client sends a resume frame naming the session; the server
// rebuilds a fresh algorithm from the session's configuration, restores
// the checkpoint, and answers with the position the client must continue
// from. Because the restored state is byte-equivalent to the live state at
// that position, an interrupted-and-resumed session produces a cover,
// certificate, space report and decision-event stream identical to an
// uninterrupted run — pinned against the repository's golden fingerprints
// across kills, drain-and-restart and cross-shard adoption by the root
// package's golden serve tests.
package serve
