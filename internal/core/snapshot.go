package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"streamcover/internal/setcover"
	"streamcover/internal/snap"
)

// snapVersion is the SCSTATE1 layout version of this package's snapshots.
const snapVersion = 1

// Snapshot implements stream.Snapshotter: the complete mid-stream state of
// Algorithm 1 — phase and subepoch cursor, generator, all five dictionaries
// (Sol, marked, C, Q̃/Q̃', T), the epoch-0 prefix counts, the diagnostic
// trace and the space meters. The resolved schedule string is embedded as
// the shape fingerprint: a snapshot only restores into an instance built
// with parameters that resolve to the identical schedule. The trace is
// written by json.Marshal and read back by decodeTrace, which accepts only
// that layout. Valid only before Finish (Finish releases the dense state to
// the pool).
func (a *Algorithm) Snapshot(wr io.Writer) error {
	if a.finished {
		return errors.New("core: Snapshot after Finish")
	}
	w := snap.NewWriter(wr, "alg1", snapVersion)
	w.String(a.shape)
	w.Int(a.pos)
	w.Int(int(a.phase))
	a.rng.Save(w)
	snap.SaveSetIDs(w, a.first)
	snap.SaveSetIDs(w, a.cert)
	w.Int(a.coveredCount)
	a.marked.Save(w)
	a.sol.Save(w)
	w.Int(a.solCount)
	w.I32s(a.e0counts)
	w.Int(a.ai)
	w.Int(a.ej)
	w.Int(a.sub)
	w.Int(a.subPos)
	a.counters.Save(w)
	a.qCur.Save(w)
	a.qNext.Save(w)
	w.F64(a.qCurProb)
	a.tcounts.Save(w)
	tr, err := json.Marshal(&a.trace)
	if err != nil {
		w.Fail(fmt.Errorf("core: marshal trace: %w", err))
	} else {
		w.Bytes(tr)
	}
	snap.SaveTracked(w, &a.Tracked)
	return w.Close()
}

// Restore implements stream.Snapshotter. The receiver must be a freshly
// constructed instance whose parameters resolve to the same schedule; a
// failed restore leaves it in an unspecified state that must be discarded.
func (a *Algorithm) Restore(rd io.Reader) error {
	if a.finished {
		return errors.New("core: Restore after Finish")
	}
	r, err := snap.NewReader(rd, "alg1")
	if err != nil {
		return err
	}
	if v := r.Version(); v != snapVersion {
		return fmt.Errorf("%w: alg1 snapshot v%d", snap.ErrVersion, v)
	}
	shape := r.StringV()
	if err := r.Err(); err != nil {
		return err
	}
	if shape != a.shape {
		return fmt.Errorf("%w: snapshot schedule %q, receiver resolves to %q",
			snap.ErrMismatch, shape, a.shape)
	}
	a.pos = r.Int()
	ph := r.Int()
	if r.Err() == nil && (ph < int(phaseEpoch0) || ph > int(phaseRemainder)) {
		return fmt.Errorf("%w: phase %d out of range", snap.ErrCorrupt, ph)
	}
	a.phase = phase(ph)
	a.rng.Load(r)
	snap.LoadSetIDsInto(r, a.first, a.r.m)
	snap.LoadSetIDsInto(r, a.cert, a.r.m)
	a.coveredCount = r.Int()
	a.marked.Load(r)
	a.sol.Load(r)
	a.solCount = r.Int()
	r.I32sInto(a.e0counts)
	a.ai = r.Int()
	a.ej = r.Int()
	a.sub = r.Int()
	a.subPos = r.Int()
	a.counters.Load(r)
	a.qCur.Load(r)
	a.qNext.Load(r)
	a.qCurProb = r.F64()
	a.tcounts.Load(r)
	tr := r.Bytes()
	if r.Err() == nil {
		decoded, err := decodeTrace(tr)
		if err != nil {
			return fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
		}
		a.trace = decoded
	}
	snap.LoadTracked(r, &a.Tracked)
	// firstFree is derived state (the batch kernels' fast-path counter), not
	// part of the SCSTATE1 layout: recompute it from the restored records.
	a.firstFree = 0
	for _, s := range a.first {
		if s == setcover.NoSet {
			a.firstFree++
		}
	}
	return r.Close()
}
