// Package lifecycle is the session layer of the serving stack: the
// open/resume/detach/finish/drain state machine, entirely independent of
// how edges arrive or where checkpoints live. A Manager owns the
// multi-tenant session table; each Session wraps one streaming-algorithm
// instance and one reusable edge buffer that keeps the steady-state ingest
// path allocation-free.
//
// The layering contract, bottom to top:
//
//   - store (internal/serve/store) persists opaque checkpoint blobs keyed
//     by session token. The lifecycle layer serializes SCCKPT1 envelopes
//     to bytes and hands them to a CheckpointStore; it never touches a
//     filesystem itself — this package imports neither net nor os, pinned
//     by a test, so a cluster tier can run Managers against any store.
//   - lifecycle (this package) decides what sessions exist, builds their
//     algorithms from Configs, applies their edge batches, and turns
//     detach into a trace-stamped checkpoint Put and resume into a Get
//     plus restore.
//   - transport (internal/serve) speaks SCWIRE1: it decodes edge frames
//     directly into the buffer Session.Reserve returns, commits them with
//     Enqueue, and maps lifecycle's typed errors onto wire error codes. It
//     is the only layer that knows about connections.
//
// The ingest handshake replaces a monolithic "parse this frame" call so
// the lifecycle never sees wire bytes: the transport calls Reserve for the
// session's edge buffer, decodes into it, then calls Enqueue(n), which
// applies the n edges to the algorithm on the calling goroutine; on a
// decode error it skips Enqueue and nothing reaches the algorithm. A
// session is one sequential stream, so it runs no goroutine of its own: a
// slow algorithm slows its connection reader, and TCP pushes back on the
// client.
package lifecycle
