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
// that layout. Valid only before Finish or Release (both hand the dense
// state back to the pool).
func (a *Algorithm) Snapshot(wr io.Writer) error {
	if a.sc == nil {
		return errors.New("core: Snapshot after Finish or Release")
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
	if a.sc == nil {
		return errors.New("core: Restore after Finish or Release")
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
	if r.Err() == nil && a.phase == phaseAlgs && !a.cursorValid() {
		return fmt.Errorf("%w: A-phase cursor ai=%d ej=%d sub=%d subPos=%d outside K=%d E=%d B=%d",
			snap.ErrCorrupt, a.ai, a.ej, a.sub, a.subPos, a.r.K, a.r.E, a.r.B)
	}
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
		if !a.r.tablesFit(&decoded) {
			return fmt.Errorf("%w: alg1 trace tables do not fit K=%d E=%d", snap.ErrCorrupt, a.r.K, a.r.E)
		}
		a.trace = decoded
	}
	snap.LoadTracked(r, &a.Tracked)
	if err := r.Close(); err != nil {
		return err
	}
	// firstFree is derived state (the batch kernels' fast-path counter), not
	// part of the SCSTATE1 layout: recompute it from the restored records.
	// The batch kernels also rely on two invariants every run keeps, so
	// that ProcessBatch stays Process: a witnessed element is marked
	// (algBlock skips it), and coveredCount counts the witnesses
	// (remainderBlock skips a block once it reaches n).
	a.firstFree = 0
	for _, s := range a.first {
		if s == setcover.NoSet {
			a.firstFree++
		}
	}
	covered := 0
	for u, s := range a.cert {
		if s == setcover.NoSet {
			continue
		}
		covered++
		if !a.marked.Test(int32(u)) {
			return fmt.Errorf("%w: alg1 element %d has witness %d but is unmarked", snap.ErrCorrupt, u, s)
		}
	}
	if covered != a.coveredCount {
		return fmt.Errorf("%w: alg1 coveredCount=%d, %d elements hold a witness", snap.ErrCorrupt, a.coveredCount, covered)
	}
	return nil
}

// tablesFit reports whether t's per-(algorithm, epoch) tables have the
// K×E shape New gives them: a special set indexes them by the cursor.
func (r *resolved) tablesFit(t *Trace) bool {
	if len(t.Specials) != r.K || len(t.AddedPerAlg) != r.K {
		return false
	}
	for _, row := range t.Specials {
		if len(row) != r.E {
			return false
		}
	}
	if !r.TraceSpecialSets {
		return true
	}
	if len(t.SpecialSets) != r.K {
		return false
	}
	for _, row := range t.SpecialSets {
		if len(row) != r.E {
			return false
		}
	}
	return true
}

// cursorValid reports whether the A-phase cursor names a subepoch of the
// schedule, 1 ≤ ai ≤ K, 1 ≤ ej ≤ E, 0 ≤ sub < B, and a position inside it,
// 0 ≤ subPos < ℓ[ai]: ProcessBatch sizes its blocks by ℓ[ai] − subPos, and
// the cursor indexes the trace and the schedule.
func (a *Algorithm) cursorValid() bool {
	return a.ai >= 1 && a.ai <= a.r.K && a.ej >= 1 && a.ej <= a.r.E &&
		a.sub >= 0 && a.sub < a.r.B && a.subPos >= 0 && a.subPos < a.r.ell[a.ai]
}
