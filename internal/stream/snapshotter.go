package stream

import (
	"errors"
	"fmt"
	"io"
)

// Snapshotter is implemented by algorithms whose complete mid-stream state
// can be serialized and later restored. The contract mirrors the streaming
// model itself: the snapshot IS the algorithm's working state — whatever
// words it carries across an edge boundary — so a restored instance must be
// observably indistinguishable from the original, producing the same coin
// flips, the same cover, the same certificate and the same reported space
// for the remainder of the stream.
//
// Snapshot is only valid between construction and Finish (Finish releases
// scratch state back to pools and must error afterwards). Restore replaces
// the receiver's state entirely; the receiver must have been constructed
// with the same shape parameters (n, m, stream length, seed-independent
// configuration) as the snapshotted instance, and implementations reject
// mismatched shapes with an error rather than restoring garbage.
type Snapshotter interface {
	// Snapshot writes the algorithm's complete state to w in the SCSTATE1
	// format (see internal/snap).
	Snapshot(w io.Writer) error
	// Restore replaces the receiver's state with one previously written by
	// Snapshot on a same-shaped instance.
	Restore(r io.Reader) error
}

// Releaser is implemented by algorithms that can hand their pooled working
// state back without finishing, as Finish does, once nothing will read
// that state again: a served session releases its algorithm once its
// detach checkpoint is written, so the next session builds from the pool.
// A released instance is dead: Finish and ProcessBatch panic, and Snapshot
// and Restore fail.
type Releaser interface {
	Release()
}

// ErrNotSnapshottable is returned when checkpointing is requested for an
// algorithm that does not implement Snapshotter.
var ErrNotSnapshottable = errors.New("stream: algorithm does not support snapshots")

// ErrShortStream is returned when a resume asks to skip past the end of the
// stream — the stream being replayed is not the one that was checkpointed.
var ErrShortStream = errors.New("stream: stream shorter than checkpoint position")

// Skipper is optionally implemented by streams that can fast-forward past a
// prefix without materializing it edge by edge for the caller. SkipTo is
// called on a freshly Reset stream and must leave it positioned exactly at
// edge pos (0-based); it fails if the stream holds fewer than pos edges.
type Skipper interface {
	SkipTo(pos int) error
}

// snapshotterOf asserts alg supports snapshots, with a descriptive error.
func snapshotterOf(alg Algorithm) (Snapshotter, error) {
	sn, ok := alg.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrNotSnapshottable, alg)
	}
	return sn, nil
}
