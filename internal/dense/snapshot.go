package dense

import (
	"slices"

	"streamcover/internal/snap"
)

// Save/Load serialize the dense primitives into a snap container. The
// encodings are logical, not physical: a StampedSet writes its member list
// and Counts writes its touched slots in touch order, so the generation
// stamps — an O(1)-Clear implementation trick — never leak into the format,
// and a loaded table is observably identical (including ForEach order) to
// the one that was saved.

// Save writes the bitset: capacity for shape validation, then the raw words.
func (b Bits) Save(w *snap.Writer) {
	w.Int(b.n)
	for _, word := range b.words {
		w.U64Fixed(word)
	}
}

// Load restores a bitset saved with Save into b, which must have the same
// capacity.
func (b Bits) Load(r *snap.Reader) {
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != b.n {
		r.Failf("%w: bitset capacity %d, receiver holds %d", snap.ErrMismatch, n, b.n)
		return
	}
	for i := range b.words {
		b.words[i] = r.U64Fixed()
	}
	// Bits past n must stay clear (Count/ForEach trust them).
	if r.Err() == nil && b.n%64 != 0 && len(b.words) > 0 {
		last := b.words[len(b.words)-1]
		if last>>(uint(b.n)%64) != 0 {
			r.Failf("%w: bitset has bits set past capacity %d", snap.ErrCorrupt, b.n)
		}
	}
}

// Save writes the set: capacity, then the member list in ascending order.
// The stamp scan stops at the last member.
func (s *StampedSet) Save(w *snap.Writer) {
	w.Int(len(s.stamp))
	w.Int(s.count)
	left := s.count
	for i := 0; left > 0 && i < len(s.stamp); i++ {
		if s.stamp[i] == s.gen {
			w.I64(int64(i))
			left--
		}
	}
}

// Load restores a set saved with Save into s, which must have the same
// capacity. The receiver's previous contents are discarded. Members decode
// in stack-sized chunks, one tight loop each.
func (s *StampedSet) Load(r *snap.Reader) {
	n := r.Int()
	k := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(s.stamp) {
		r.Failf("%w: set capacity %d, receiver holds %d", snap.ErrMismatch, n, len(s.stamp))
		return
	}
	if k < 0 || k > n {
		r.Failf("%w: set size %d of capacity %d", snap.ErrCorrupt, k, n)
		return
	}
	s.Clear()
	var chunk [256]int32
	for k > 0 {
		part := chunk[:min(k, len(chunk))]
		k -= len(part)
		r.FillI32s(part)
		if r.Err() != nil {
			return
		}
		for _, i := range part {
			if i < 0 || int(i) >= n {
				r.Failf("%w: set member %d out of range [0,%d)", snap.ErrCorrupt, i, n)
				return
			}
			s.Add(i)
		}
	}
}

// Save writes the counter table: capacity, then (slot, count) pairs in touch
// order.
func (c *Counts) Save(w *snap.Writer) {
	w.Int(len(c.counts))
	w.Int(len(c.touched))
	for _, i := range c.touched {
		w.I64(int64(i))
		w.I64(int64(c.counts[i]))
	}
}

// Load restores a table saved with Save into c, which must have the same
// capacity. Touch order — and therefore ForEach order — is preserved. The
// (slot, count) pairs decode in one loop into the touched list's backing
// array, which is then compacted to the slots in place.
func (c *Counts) Load(r *snap.Reader) {
	n := r.Int()
	k := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(c.counts) {
		r.Failf("%w: counter capacity %d, receiver holds %d", snap.ErrMismatch, n, len(c.counts))
		return
	}
	if k < 0 || k > n {
		r.Failf("%w: %d touched slots of capacity %d", snap.ErrCorrupt, k, n)
		return
	}
	c.Clear()
	pairs := slices.Grow(c.touched, 2*k)[:2*k]
	r.FillI32s(pairs)
	if r.Err() != nil {
		return
	}
	for j := 0; j < k; j++ {
		i, v := pairs[2*j], pairs[2*j+1]
		if i < 0 || int(i) >= n {
			r.Failf("%w: counter slot %d out of range [0,%d)", snap.ErrCorrupt, i, n)
			return
		}
		if c.stamp[i] == c.gen {
			r.Failf("%w: counter slot %d repeated", snap.ErrCorrupt, i)
			return
		}
		c.stamp[i] = c.gen
		c.counts[i] = v
		pairs[j] = i // j <= 2j: the pair is read before its slot is overwritten
	}
	c.touched = pairs[:k]
}
