// Package serve turns the streaming set cover library into a network
// service: a TCP server that accepts edge-arrival streams over the SCWIRE1
// wire protocol, a multi-tenant session manager that runs one registered
// streaming algorithm per session on the library's zero-allocation batch
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
//     resume, detach, finish, drain — plus the algorithm registry and the
//     ingest ring. It imports neither net nor os.
//   - this package speaks SCWIRE1 over TCP, decoding edge frames straight
//     into ring buffers leased from Session.Reserve and mapping lifecycle
//     errors onto wire error codes. Type aliases in serve.go re-export the
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
// the SCSTRM1 file codec), flush (request a position ack once everything
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
// Each connection owns at most one session. Edge batches flow from the
// connection reader into a bounded ring of reusable buffers (backpressure:
// when the ring is full the reader blocks, which TCP propagates to the
// client; stalls are counted in internal/obs) and a per-session worker
// goroutine drains the ring into the algorithm via ProcessBatch — the same
// zero-allocation batch path as the file driver, so the server's steady
// state allocates nothing per edge batch.
//
// On any disconnect — abrupt drop, read timeout, explicit detach, or
// server drain on SIGTERM — the worker drains what was already queued and
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
// in the serve tests and by `make serve-smoke`.
package serve
