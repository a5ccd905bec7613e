package kk

import (
	"errors"
	"fmt"
	"io"

	"streamcover/internal/setcover"
	"streamcover/internal/snap"
)

// snapVersion is the SCSTATE1 layout version of this package's snapshots.
const snapVersion = 1

// Snapshot implements stream.Snapshotter: the complete mid-stream state —
// generator, degree counters, sampled solution, coverage bookkeeping and
// space meters — so a restored run finishes bit-identically. Valid only
// before Finish or Release (both hand the working arrays to the pool).
func (a *Algorithm) Snapshot(wr io.Writer) error {
	if a.sc == nil {
		return errors.New("kk: Snapshot after Finish or Release")
	}
	w := snap.NewWriter(wr, "kk", snapVersion)
	w.Int(a.n)
	w.Int(a.m)
	w.I64(a.pos)
	a.rng.Save(w)
	w.I32s(a.deg)
	a.sol.Save(w)
	w.Int(a.solCount)
	w.Bools(a.covered)
	w.Int(a.coveredCount)
	snap.SaveSetIDs(w, a.first)
	snap.SaveSetIDs(w, a.cert)
	w.Int(a.patched)
	snap.SaveTracked(w, &a.Tracked)
	return w.Close()
}

// Restore implements stream.Snapshotter. The receiver must be a freshly
// constructed instance with the same (n, m); a failed restore leaves it in
// an unspecified state that must be discarded.
func (a *Algorithm) Restore(rd io.Reader) error {
	if a.sc == nil {
		return errors.New("kk: Restore after Finish or Release")
	}
	r, err := snap.NewReader(rd, "kk")
	if err != nil {
		return err
	}
	if v := r.Version(); v != snapVersion {
		return fmt.Errorf("%w: kk snapshot v%d", snap.ErrVersion, v)
	}
	n, m := r.Int(), r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n != a.n || m != a.m {
		return fmt.Errorf("%w: snapshot shape n=%d m=%d, receiver has n=%d m=%d",
			snap.ErrMismatch, n, m, a.n, a.m)
	}
	a.pos = r.I64()
	a.rng.Load(r)
	r.I32sInto(a.deg)
	a.sol.Load(r)
	a.solCount = r.Int()
	r.BoolsInto(a.covered)
	a.coveredCount = r.Int()
	snap.LoadSetIDsInto(r, a.first, a.m)
	snap.LoadSetIDsInto(r, a.cert, a.m)
	a.patched = r.Int()
	snap.LoadTracked(r, &a.Tracked)
	if err := r.Close(); err != nil {
		return err
	}
	// processBlock picks its schedule from solCount, coveredCount and
	// firstFree, so they must agree with the arrays they count, or
	// ProcessBatch would diverge from Process. firstFree is not part of the
	// SCSTATE1 layout: recompute it. The stored counters are checked, and
	// so is the invariant the cold schedule relies on: every covered
	// element's witness is a sampled set.
	a.firstFree = 0
	for _, s := range a.first {
		if s == setcover.NoSet {
			a.firstFree++
		}
	}
	covered := 0
	for u, c := range a.covered {
		if !c {
			continue
		}
		covered++
		if s := a.cert[u]; s == setcover.NoSet || !a.sol.Test(s) {
			return fmt.Errorf("%w: kk element %d is covered by unsampled set %d", snap.ErrCorrupt, u, s)
		}
	}
	if sol := a.sol.Count(); a.solCount != sol || a.coveredCount != covered {
		return fmt.Errorf("%w: kk counters solCount=%d coveredCount=%d, state holds %d sets and %d covered elements",
			snap.ErrCorrupt, a.solCount, a.coveredCount, sol, covered)
	}
	a.stale = true
	return nil
}
