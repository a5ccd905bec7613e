package lifecycle

import (
	"fmt"
	"sync"

	"streamcover/internal/obs"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// MaxBatch is the largest number of edges one ingest batch may carry. It
// matches stream.BatchSize so a served batch drains through ProcessBatch
// in one call, and keeps a session's one ingest buffer (MaxBatch edges,
// 32 KiB) modest enough to hold hundreds of concurrent sessions. The
// transport enforces the same bound on edges frames.
const MaxBatch = 4096

// maxPooledBufs bounds a manager's free-list of ingest buffers, so a burst
// of concurrent sessions does not pin its buffers forever.
const maxPooledBufs = 256

// edgeBufs is a manager's free-list of ingest buffers, so a session opened
// or resumed after another has stopped takes its buffer instead of
// allocating 32 KiB. It is a plain free-list, as frame.Pool is, rather
// than a sync.Pool, which drops its contents at every GC cycle.
type edgeBufs struct {
	mu sync.Mutex
	xs [][]stream.Edge
}

// get returns a free buffer of MaxBatch edges, or a new one.
func (p *edgeBufs) get() []stream.Edge {
	p.mu.Lock()
	var buf []stream.Edge
	if n := len(p.xs); n > 0 {
		buf = p.xs[n-1]
		p.xs[n-1] = nil
		p.xs = p.xs[:n-1]
	}
	p.mu.Unlock()
	if buf == nil {
		buf = make([]stream.Edge, MaxBatch)
	}
	return buf
}

// put takes back a buffer no session holds any more.
func (p *edgeBufs) put(buf []stream.Edge) {
	p.mu.Lock()
	if len(p.xs) < maxPooledBufs {
		p.xs = append(p.xs, buf)
	}
	p.mu.Unlock()
}

// Session runs one algorithm instance fed from outside the package. The
// transport decodes each edge batch into the buffer Reserve returns (zero
// allocations per batch in steady state — the lifecycle never sees wire
// bytes) and commits it with Enqueue, which applies it to the algorithm
// through ProcessBatch — the library's batched hot path — before
// returning. A session is one sequential stream: every Session method is
// called from the single goroutine feeding it (the connection reader),
// which therefore owns the algorithm and the position counter.
type Session struct {
	token string
	trace obs.TraceID // session identity: minted at open, survives resume
	cfg   Config
	alg   stream.Algorithm
	bp    stream.BatchProcessor // alg's batched path; nil when it has none
	buf   []stream.Edge         // the ingest buffer Reserve hands out; nil once stopped
	bufs  *edgeBufs             // the manager's free-list buf returns to
	pos   int                   // stream position the algorithm state corresponds to

	stopped   bool // Detach or Finish has retired the session
	persisted bool // this session's lifetime wrote or read a store checkpoint
	so        *obs.ServeObs
	tslot     *obs.SessionSlot // per-session telemetry row (nil when off)
}

// newSession wraps alg (built for cfg) with an ingest buffer from m's
// free-list. pos is the stream position the algorithm state corresponds to
// (0 for new sessions, the checkpoint position for resumed ones).
func (m *Manager) newSession(token string, trace obs.TraceID, cfg Config, alg stream.Algorithm, pos int, tslot *obs.SessionSlot) *Session {
	bp, _ := alg.(stream.BatchProcessor)
	return &Session{
		token: token,
		trace: trace,
		cfg:   cfg,
		alg:   alg,
		bp:    bp,
		buf:   m.bufs.get(),
		bufs:  &m.bufs,
		pos:   pos,
		so:    m.so,
		tslot: tslot,
	}
}

// Token reports the session's token.
func (s *Session) Token() string { return s.token }

// Trace reports the session's identity: minted at open, carried by every
// checkpoint, surviving resume.
func (s *Session) Trace() obs.TraceID { return s.trace }

// Config reports the configuration the session's algorithm was built from.
func (s *Session) Config() Config { return s.cfg }

// Reserve returns the session's ingest buffer (capacity MaxBatch) for the
// caller to decode an edge batch into. The buffer is reused by every
// batch: its contents are only read by the next Enqueue. A caller whose
// decode fails simply does not Enqueue. Once Detach or Finish has stopped
// the session, its buffer belongs to the manager's free-list and Reserve
// returns nil.
func (s *Session) Reserve() []stream.Edge { return s.buf }

// Enqueue applies the first n edges of the Reserve buffer to the
// algorithm and advances the session's position. It returns once they
// are processed; a slow algorithm therefore slows the connection reader,
// and TCP carries that backpressure to the client.
func (s *Session) Enqueue(n int) {
	batch := s.buf[:n]
	if s.bp != nil {
		s.bp.ProcessBatch(batch)
	} else {
		for _, e := range batch {
			s.alg.Process(e)
		}
	}
	s.pos += n
	s.so.Batch(n)
	s.tslot.Batch(n)
}

// live fails once Detach or Finish has retired the session.
func (s *Session) live() error {
	if s.stopped {
		return fmt.Errorf("serve: session %s already stopped", s.token)
	}
	return nil
}

// Flush returns the position consumed so far: every enqueued edge has
// already been processed.
func (s *Session) Flush() (int, error) {
	if err := s.live(); err != nil {
		return 0, err
	}
	return s.pos, nil
}

// finish finishes the algorithm and returns the result. The session is
// dead afterwards.
func (s *Session) finish() (Result, error) {
	if err := s.live(); err != nil {
		return Result{}, err
	}
	s.retire()
	res := Result{Edges: s.pos, Cover: s.alg.Finish()}
	if rep, ok := s.alg.(space.Reporter); ok {
		res.Space = rep.Space()
	}
	return res, nil
}

// stop retires the session without finishing, returning the consumed
// position; the algorithm may be snapshotted afterwards.
func (s *Session) stop() (int, error) {
	if err := s.live(); err != nil {
		return 0, err
	}
	s.retire()
	return s.pos, nil
}

// retire marks the session stopped and returns its ingest buffer to the
// manager's free-list. Every path that stops a session (Detach, Finish, and
// fail, which only ever sees a session one of them has stopped) comes
// through here once, so the buffer returns once, and Reserve cannot hand a
// late caller a buffer another session now holds.
func (s *Session) retire() {
	s.stopped = true
	s.bufs.put(s.buf)
	s.buf = nil
}
