package stream

import (
	"fmt"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
)

// Algorithm is a one-pass streaming set cover algorithm: it observes each
// edge exactly once, in stream order, and afterwards produces a cover with a
// certificate. Implementations additionally implement space.Reporter so the
// harness can verify the paper's space bounds.
type Algorithm interface {
	// Process observes the next edge of the stream.
	Process(e Edge)
	// Finish runs any post-processing (e.g. the patching phases of
	// Algorithms 1 and 2) and returns the output cover. It must be called
	// exactly once, after the whole stream has been processed.
	Finish() *setcover.Cover
}

// BatchProcessor is optionally implemented by algorithms whose hot path can
// consume a contiguous run of edges in one call. ProcessBatch(edges) must be
// observably identical to calling Process on each edge in order — same
// output, same coin flips, same space charges — it only amortizes the
// per-edge interface dispatch. Run uses it automatically when present.
type BatchProcessor interface {
	ProcessBatch(edges []Edge)
}

// Batcher is optionally implemented by streams that can expose consecutive
// edges as slices without a per-edge call. The returned slice aliases
// internal storage and is only valid until the next NextBatch/Next/Reset
// call; an empty result means end of stream. Run prefers this over Next when
// the algorithm is a BatchProcessor.
type Batcher interface {
	NextBatch(max int) []Edge
}

// ErrReporter is implemented by streams whose pass can fail mid-replay —
// File, where decode and checksum validation are folded into the replay
// itself. Err returns the sticky error that terminated the
// current pass, or nil while the pass is clean; Reset clears it.
type ErrReporter interface {
	Err() error
}

// StreamErr returns s's sticky decode error, or nil when s cannot fail
// mid-pass. The driver consults it after every drive so a silently truncated
// pass (a stream that ended early because its backing file is corrupt) is
// reported rather than mistaken for a short stream.
func StreamErr(s Stream) error {
	if er, ok := s.(ErrReporter); ok {
		return er.Err()
	}
	return nil
}

// Pass drives one pass of s for a multi-pass consumer: it resets s and
// hands every edge, in order, to fn, reading through NextBatch when s is a
// Batcher. It stops at fn's first error and returns it; otherwise it
// returns the stream's sticky error (StreamErr), so a pass that a corrupt
// File cut short is reported, not mistaken for the end of the stream.
func Pass(s Stream, fn func(Edge) error) error {
	s.Reset()
	if bs, ok := s.(Batcher); ok {
		for batch := bs.NextBatch(BatchSize); len(batch) > 0; batch = bs.NextBatch(BatchSize) {
			for _, e := range batch {
				if err := fn(e); err != nil {
					return err
				}
			}
		}
	} else {
		for e, ok := s.Next(); ok; e, ok = s.Next() {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return StreamErr(s)
}

// BatchSize is the chunk length Run uses when driving a BatchProcessor:
// large enough to amortize dispatch, small enough that a batch of 8-byte
// edges stays in L1.
const BatchSize = 4096

// BatchSizer is optionally implemented by algorithms that prefer a specific
// driver batch granularity. A positive BatchSize caps the chunk length the
// driver dispatches (an Ensemble forwards the minimum over its copies);
// non-positive means no preference and the driver uses its default.
type BatchSizer interface {
	BatchSize() int
}

// batchSizeFor resolves the dispatch granularity for alg.
func batchSizeFor(alg Algorithm) int {
	if bs, ok := alg.(BatchSizer); ok {
		if n := bs.BatchSize(); n > 0 {
			return n
		}
	}
	return BatchSize
}

// Result is the outcome of driving an Algorithm over a Stream.
type Result struct {
	Cover *setcover.Cover
	// Edges is the number of edges processed (= stream length).
	Edges int
	// Space is the algorithm's peak usage if it implements space.Reporter,
	// zero otherwise.
	Space space.Usage
	// Err is the stream's sticky decode error when the pass failed mid-replay
	// (e.g. a corrupt stream file whose CRC check is folded into the replay);
	// the cover only reflects the edges decoded before the failure and must
	// be discarded when Err is non-nil.
	Err error
}

// Run resets s, feeds every edge to alg in order, finishes the algorithm
// and collects the result. When alg implements BatchProcessor the edges are
// delivered in chunks — directly as views of the stream's storage when s
// implements Batcher, via a scratch buffer otherwise.
//
// When a process-global obs.Hub is installed and alg identifies itself
// (obs.Identified), the run stamps per-batch timing, throughput and
// space-meter checkpoints; without a hub the drive path is the same tight
// loops as before, with zero added allocations.
func Run(alg Algorithm, s Stream) Result {
	return RunObserved(alg, s, obs.RunObsFor(obs.AlgoOf(alg)))
}

// RunObserved is Run with an explicit run-metrics handle (nil disables run
// metrics; this is also the only behavior under the obsoff build tag).
func RunObserved(alg Algorithm, s Stream, ro *obs.RunObs) Result {
	var start time.Time
	if ro != nil {
		start = time.Now()
	}
	n, err := driveStream(alg, s, ro, 0, 0, 0, nil)
	res := finishRun(alg, ro, n, start)
	res.Err = err
	return res
}

// finishRun finalizes a driven algorithm and assembles the Result.
func finishRun(alg Algorithm, ro *obs.RunObs, n int, start time.Time) Result {
	res := Result{Cover: alg.Finish(), Edges: n}
	if rep, ok := alg.(space.Reporter); ok {
		res.Space = rep.Space()
	}
	if ro != nil {
		stampSpace(alg, ro)
		ro.Covered(CoveredOf(res.Cover.Certificate))
		ro.RunDone(n, time.Since(start).Nanoseconds())
	}
	return res
}

// driveStream resets s, skips the first skip edges (the resume path), and
// feeds the rest to alg, returning the absolute number of edges consumed
// (skip included). It has two regimes:
//
//   - ro == nil && every <= 0 && skip == 0 && limit <= 0: the uninstrumented
//     fast path — the exact closure-free loops of the original Run,
//     preserving the zero-allocation steady state (see
//     TestSteadyStateProcessBatchAllocs and the end-to-end benchmark alloc
//     budgets in BENCH_*.json).
//   - otherwise: the observed path. Batches are clipped so that checkpoint
//     positions (absolute multiples of every) always land exactly on a batch
//     boundary, making sampled state identical to a per-edge drive — and
//     identical across interrupted and uninterrupted runs; each dispatched
//     batch is timed and stamped on ro.
//
// limit > 0 stops after limit edges beyond the skip point (DrivePartial's
// kill simulation). A non-nil sample may return an error (a failed
// checkpoint write), which aborts the drive. After the drive, the stream's
// sticky error (StreamErr) is returned, so a pass terminated early by a
// decode failure — including a CRC mismatch detected at the end of a lazily
// verified File pass — is never mistaken for a clean short stream.
func driveStream(alg Algorithm, s Stream, ro *obs.RunObs, skip, every, limit int, sample func(pos int) error) (int, error) {
	s.Reset()
	if skip > 0 {
		if err := skipEdges(s, skip); err != nil {
			return 0, err
		}
	}
	if ro == nil && every <= 0 && skip == 0 && limit <= 0 {
		n := driveFast(alg, s)
		return n, StreamErr(s)
	}

	n := skip
	bsz := batchSizeFor(alg)
	bp, isBP := alg.(BatchProcessor)
	var bs Batcher
	var buf []Edge
	if isBP {
		if b, ok := s.(Batcher); ok {
			bs = b
		} else {
			buf = make([]Edge, bsz)
		}
	}
	for {
		// Clip the batch at the next checkpoint boundary and the limit.
		max := bsz
		if every > 0 {
			if r := every - n%every; r < max {
				max = r
			}
		}
		if limit > 0 {
			if r := skip + limit - n; r < max {
				max = r
			}
			if max <= 0 {
				break
			}
		}
		var t0 time.Time
		if ro != nil {
			t0 = time.Now()
		}
		k := 0
		switch {
		case isBP && bs != nil:
			batch := bs.NextBatch(max)
			if len(batch) > 0 {
				bp.ProcessBatch(batch)
			}
			k = len(batch)
		case isBP:
			for k < max {
				e, ok := s.Next()
				if !ok {
					break
				}
				buf[k] = e
				k++
			}
			if k > 0 {
				bp.ProcessBatch(buf[:k])
			}
		default:
			// Per-edge algorithm: drive up to max edges and account for them
			// as one dispatched batch.
			for k < max {
				e, ok := s.Next()
				if !ok {
					break
				}
				alg.Process(e)
				k++
			}
		}
		if k == 0 {
			break
		}
		if ro != nil {
			ro.Batch(k, time.Since(t0).Nanoseconds())
		}
		n += k
		if every > 0 && n%every == 0 && sample != nil {
			if err := sample(n); err != nil {
				return n, err
			}
		}
	}
	return n, StreamErr(s)
}

// errShortStream reports a stream that ended at edge got when a resume
// needed to reach edge want.
func errShortStream(got, want int) error {
	return fmt.Errorf("%w: stream ended at edge %d, resume needs %d", ErrShortStream, got, want)
}

// skipEdges discards the first skip edges of a freshly Reset stream, using
// the stream's own fast-forward when it has one (File decodes and validates
// without dispatching). It fails if the stream is shorter than skip.
func skipEdges(s Stream, skip int) error {
	if sk, ok := s.(Skipper); ok {
		return sk.SkipTo(skip)
	}
	if bs, ok := s.(Batcher); ok {
		for skipped := 0; skipped < skip; {
			batch := bs.NextBatch(skip - skipped)
			if len(batch) == 0 {
				if err := StreamErr(s); err != nil {
					return err
				}
				return errShortStream(skipped, skip)
			}
			skipped += len(batch)
		}
		return nil
	}
	for i := 0; i < skip; i++ {
		if _, ok := s.Next(); !ok {
			if err := StreamErr(s); err != nil {
				return err
			}
			return errShortStream(i, skip)
		}
	}
	return nil
}

// driveFast is the original uninstrumented drive: no timing, no closures, no
// allocations beyond the scratch batch buffer for non-Batcher streams. It
// honors the algorithm's BatchSizer preference, like the observed path.
func driveFast(alg Algorithm, s Stream) int {
	n := 0
	bsz := batchSizeFor(alg)
	if bp, ok := alg.(BatchProcessor); ok {
		if bs, ok := s.(Batcher); ok {
			for {
				batch := bs.NextBatch(bsz)
				if len(batch) == 0 {
					break
				}
				bp.ProcessBatch(batch)
				n += len(batch)
			}
		} else {
			buf := make([]Edge, bsz)
			for {
				k := 0
				for k < len(buf) {
					e, ok := s.Next()
					if !ok {
						break
					}
					buf[k] = e
					k++
				}
				if k == 0 {
					break
				}
				bp.ProcessBatch(buf[:k])
				n += k
			}
		}
	} else {
		for {
			e, ok := s.Next()
			if !ok {
				break
			}
			alg.Process(e)
			n++
		}
	}
	return n
}

// stampSpace publishes the algorithm's space-meter checkpoint on ro.
func stampSpace(alg Algorithm, ro *obs.RunObs) {
	if cp, ok := alg.(space.CheckpointReporter); ok {
		cur, peak := cp.Checkpoint()
		ro.StateWords(0, cur.State, peak.State)
		ro.StateWords(1, cur.Aux, peak.Aux)
	}
}

// RunEdges is Run over an in-memory edge slice.
func RunEdges(alg Algorithm, edges []Edge) Result {
	return Run(alg, NewSlice(edges))
}
