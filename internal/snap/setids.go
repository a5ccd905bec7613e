package snap

import "streamcover/internal/setcover"

// SaveSetIDs writes a length-prefixed slice of set identifiers (NoSet
// included) as signed varints.
func SaveSetIDs(w *Writer, v []setcover.SetID) { appendVarints(w, v) }

// LoadSetIDsInto reads a slice written by SaveSetIDs into dst, failing
// unless the stored length matches exactly and every value is either NoSet
// or a valid set index in [0, m).
func LoadSetIDsInto(r *Reader, dst []setcover.SetID, m int) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Failf("%w: set-id slice length %d, receiver holds %d", ErrMismatch, n, len(dst))
		return
	}
	fillVarints(r, dst, int64(setcover.NoSet), int64(m)-1)
}
