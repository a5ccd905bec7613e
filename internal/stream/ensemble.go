package stream

import (
	"fmt"
	"io"
	"runtime"

	"streamcover/internal/obs"
	"streamcover/internal/setcover"
	"streamcover/internal/snap"
	"streamcover/internal/space"
)

// Ensemble runs several independent copies of a randomized streaming
// algorithm over the same stream and outputs the smallest cover. The paper
// uses exactly this device twice: the remark after Theorem 2 (boosting
// success probability from 3/4 to 1 − 1/(4m) with O(log m) copies) and the
// remark after Theorem 4 (turning Algorithm 2's expected approximation
// guarantee into a high-probability one at the cost of a log m space
// factor).
//
// The copies are statistically independent, so they are also embarrassingly
// parallel: by default the ensemble shards them across min(copies,
// GOMAXPROCS) worker goroutines, each owning a contiguous slice of copies.
// Every batch is fanned out to the workers through reusable per-worker
// buffers (each worker takes a private copy of the batch, so the driver may
// overlap decoding the next batch with processing), and the next dispatch
// waits for the previous one — the workers advance in lockstep at batch
// granularity, so every copy still observes the exact arrival order. Because
// each copy is driven by exactly one goroutine, per-copy execution — coin
// flips, space charges, output — is bit-identical to a sequential run, and
// Finish's winner selection scans copies in index order, so results are
// deterministic regardless of parallelism.
type Ensemble struct {
	copies []Algorithm
	// BestIndex is the index of the winning copy, set by Finish.
	BestIndex int

	// parallelism is the requested worker count; 0 means automatic
	// (min(copies, GOMAXPROCS)). 1 selects the sequential path.
	parallelism int
	started     bool
	workers     []*ensembleWorker
	covers      []*setcover.Cover
	one         [1]Edge // scratch for the per-edge Process path
}

// snapVersion is the ensemble's SCSTATE1 layout version.
const ensembleSnapVersion = 1

// NewEnsemble wraps the given independently-seeded copies. It panics if no
// copies are supplied.
func NewEnsemble(copies ...Algorithm) *Ensemble {
	if len(copies) == 0 {
		panic("stream: NewEnsemble needs at least one copy")
	}
	return &Ensemble{copies: copies, BestIndex: -1}
}

// Copies returns the number of parallel copies.
func (e *Ensemble) Copies() int { return len(e.copies) }

// SetParallelism fixes the number of worker goroutines: n <= 1 forces the
// sequential path, n > 1 is clamped to the number of copies. Call it before
// the first edge; it panics once the ensemble has started processing.
func (e *Ensemble) SetParallelism(n int) {
	if e.started {
		panic("stream: SetParallelism after processing started")
	}
	if n < 1 {
		n = 1
	}
	e.parallelism = n
}

// start decides the execution mode on the first edge and launches workers.
func (e *Ensemble) start() {
	e.started = true
	n := e.parallelism
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(e.copies) {
		n = len(e.copies)
	}
	if n <= 1 {
		return // sequential: no workers, no channels
	}
	e.covers = make([]*setcover.Cover, len(e.copies))
	e.workers = make([]*ensembleWorker, n)
	base, rem := len(e.copies)/n, len(e.copies)%n
	lo := 0
	for i := range e.workers {
		sz := base
		if i < rem {
			sz++
		}
		w := &ensembleWorker{
			lo:   lo,
			hi:   lo + sz,
			work: make(chan ensembleCmd, 1),
			done: make(chan struct{}, 1),
		}
		lo += sz
		e.workers[i] = w
		go w.loop(e)
	}
}

// ensembleCmd is one unit of work sent to a worker: a batch to forward to
// the worker's shard, or the finish signal.
type ensembleCmd struct {
	edges  []Edge
	finish bool
}

// ensembleWorker owns the contiguous shard copies[lo:hi]. Only its goroutine
// touches those copies between start and finish, so the shard needs no
// locking; the done channel's happens-before edge publishes the copies'
// state back to the caller at drain points.
type ensembleWorker struct {
	lo, hi int
	buf    []Edge // private batch copy, reused across dispatches
	work   chan ensembleCmd
	done   chan struct{}
	busy   bool
}

func (w *ensembleWorker) loop(e *Ensemble) {
	for cmd := range w.work {
		if cmd.finish {
			for i := w.lo; i < w.hi; i++ {
				e.covers[i] = e.copies[i].Finish()
			}
			w.done <- struct{}{}
			return
		}
		for i := w.lo; i < w.hi; i++ {
			c := e.copies[i]
			if bp, ok := c.(BatchProcessor); ok {
				bp.ProcessBatch(cmd.edges)
			} else {
				for _, ed := range cmd.edges {
					c.Process(ed)
				}
			}
		}
		w.done <- struct{}{}
	}
}

// wait blocks until the worker's in-flight command (if any) completes.
func (w *ensembleWorker) wait() {
	if w.busy {
		<-w.done
		w.busy = false
	}
}

// drain waits for all in-flight work, so the caller may safely read (or
// finish) every copy.
func (e *Ensemble) drain() {
	for _, w := range e.workers {
		w.wait()
	}
}

// Process implements Algorithm by forwarding the edge to every copy.
func (e *Ensemble) Process(ed Edge) {
	if !e.started {
		e.start()
	}
	if e.workers == nil {
		for _, c := range e.copies {
			c.Process(ed)
		}
		return
	}
	e.one[0] = ed
	e.dispatch(e.one[:])
}

// ProcessBatch implements BatchProcessor by fanning the chunk out to the
// workers (or, sequentially, forwarding it to every copy in turn, using each
// copy's own batched path when it has one).
func (e *Ensemble) ProcessBatch(edges []Edge) {
	if !e.started {
		e.start()
	}
	if len(edges) == 0 {
		return
	}
	if e.workers == nil {
		for _, c := range e.copies {
			if bp, ok := c.(BatchProcessor); ok {
				bp.ProcessBatch(edges)
			} else {
				for _, ed := range edges {
					c.Process(ed)
				}
			}
		}
		return
	}
	e.dispatch(edges)
}

// dispatch hands the batch to every worker. Each worker gets a private copy
// in its reusable buffer (the caller's slice may alias stream storage that
// the driver overwrites while workers are still processing).
func (e *Ensemble) dispatch(edges []Edge) {
	for _, w := range e.workers {
		w.wait()
		w.buf = append(w.buf[:0], edges...)
		w.work <- ensembleCmd{edges: w.buf}
		w.busy = true
	}
}

// Finish implements Algorithm: every copy is finished (in parallel, when
// workers are running) and the smallest cover wins, ties broken toward the
// earliest copy.
func (e *Ensemble) Finish() *setcover.Cover {
	if e.workers != nil {
		e.drain()
		for _, w := range e.workers {
			w.work <- ensembleCmd{finish: true}
			w.busy = true
		}
		for _, w := range e.workers {
			<-w.done
			w.busy = false
			close(w.work)
		}
		e.workers = nil
		best := 0
		for i, cov := range e.covers {
			if cov.Size() < e.covers[best].Size() {
				best = i
			}
		}
		e.BestIndex = best
		return e.covers[best]
	}
	var best *setcover.Cover
	for i, c := range e.copies {
		cov := c.Finish()
		if best == nil || cov.Size() < best.Size() {
			best = cov
			e.BestIndex = i
		}
	}
	return best
}

// Release implements Releaser: the workers, if any, stop, and every copy
// that implements Releaser releases its state. The ensemble is dead
// afterwards.
func (e *Ensemble) Release() {
	e.drain()
	for _, w := range e.workers {
		close(w.work)
	}
	e.started, e.workers = true, nil // a later batch runs, and panics, on the caller
	for _, c := range e.copies {
		if r, ok := c.(Releaser); ok {
			r.Release()
		}
	}
}

// BatchSize implements BatchSizer by forwarding the most restrictive (i.e.
// smallest positive) preference among the copies, so the driver's dispatch
// granularity respects every copy; 0 when no copy has a preference.
func (e *Ensemble) BatchSize() int {
	min := 0
	for _, c := range e.copies {
		if bs, ok := c.(BatchSizer); ok {
			if n := bs.BatchSize(); n > 0 && (min == 0 || n < min) {
				min = n
			}
		}
	}
	return min
}

// Space implements space.Reporter: the total over all copies (the log m
// space factor of the paper's remarks).
func (e *Ensemble) Space() space.Usage {
	e.drain()
	var total space.Usage
	for _, c := range e.copies {
		if rep, ok := c.(space.Reporter); ok {
			u := rep.Space()
			total.State += u.State
			total.Aux += u.Aux
		}
	}
	return total
}

// Snapshot implements Snapshotter: an "ensemble" container holding the copy
// count and one nested container per copy. Every copy must itself be a
// Snapshotter. In-flight work is drained first, so the snapshot observes all
// copies at the same stream position.
func (e *Ensemble) Snapshot(wr io.Writer) error {
	e.drain()
	w := snap.NewWriter(wr, "ensemble", ensembleSnapVersion)
	w.Int(len(e.copies))
	for i, c := range e.copies {
		sn, ok := c.(Snapshotter)
		if !ok {
			w.Fail(fmt.Errorf("%w: ensemble copy %d (%T)", ErrNotSnapshottable, i, c))
			break
		}
		if w.Err() != nil {
			break
		}
		if err := sn.Snapshot(w.Raw()); err != nil {
			w.Fail(fmt.Errorf("ensemble copy %d: %w", i, err))
			break
		}
	}
	return w.Close()
}

// Restore implements Snapshotter. The receiver must hold the same number of
// same-shaped copies as the snapshotted ensemble.
func (e *Ensemble) Restore(rd io.Reader) error {
	r, err := snap.NewReader(rd, "ensemble")
	if err != nil {
		return err
	}
	if v := r.Version(); v != ensembleSnapVersion {
		return fmt.Errorf("%w: ensemble snapshot v%d", snap.ErrVersion, v)
	}
	k := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if k != len(e.copies) {
		return fmt.Errorf("%w: snapshot holds %d copies, ensemble has %d", snap.ErrMismatch, k, len(e.copies))
	}
	for i, c := range e.copies {
		sn, ok := c.(Snapshotter)
		if !ok {
			return fmt.Errorf("%w: ensemble copy %d (%T)", ErrNotSnapshottable, i, c)
		}
		if err := sn.Restore(r.Raw()); err != nil {
			return fmt.Errorf("ensemble copy %d: %w", i, err)
		}
	}
	return r.Close()
}

// ObsAlgo implements obs.Identified: the driver labels an ensemble's run
// metrics under one series rather than attributing them to any single copy.
func (e *Ensemble) ObsAlgo() obs.AlgoID { return obs.AlgoEnsemble }

var _ Algorithm = (*Ensemble)(nil)
var _ BatchProcessor = (*Ensemble)(nil)
var _ Releaser = (*Ensemble)(nil)
var _ BatchSizer = (*Ensemble)(nil)
var _ Snapshotter = (*Ensemble)(nil)
var _ space.Reporter = (*Ensemble)(nil)
var _ obs.Identified = (*Ensemble)(nil)
