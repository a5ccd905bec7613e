// Package snap implements the SCSTATE1 serialized-state codec: the versioned,
// checksummed binary container every streaming algorithm's Snapshot/Restore
// (stream.Snapshotter) is built on.
//
// The format mirrors the SCTRACE1 trace-file discipline (internal/obs): an
// 8-byte magic, a self-describing header, a varint-encoded payload, and a
// CRC-32 (IEEE) trailer over everything before it. The header names the
// algorithm the state belongs to and a per-algorithm version number, so a
// snapshot restored into the wrong algorithm — or a future incompatible
// layout — fails loudly with a typed error instead of silently producing a
// scrambled run.
//
// Containers are self-delimiting: Restore reads exactly the bytes Snapshot
// wrote (the field sequences are mirror images) plus the 4-byte trailer, so
// containers can be nested (an ensemble snapshot embeds one container per
// copy) or embedded in an outer envelope (a checkpoint file) without length
// prefixes.
//
// The codec works in memory. A Writer appends every field to one byte slice
// and computes the checksum once at Close; a Reader decodes in place from
// one byte slice and checksums the container's span once at Close. Nesting
// shares the slice: a child Writer appends into its parent's Buffer, and a
// child Reader decodes from its parent's bytes and hands the cursor back.
//
// Both Writer and Reader use sticky errors: the first failure latches and
// every later call is a no-op, so call sites serialize whole structs without
// per-field error plumbing and check once at Close.
package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"streamcover/internal/frame"
)

// Magic identifies a serialized-state container.
const Magic = "SCSTATE1"

var (
	// ErrCorrupt is returned when a snapshot fails its checksum or is
	// structurally invalid (bad magic, out-of-range field).
	ErrCorrupt = errors.New("snap: corrupt snapshot")
	// ErrTruncated is returned when the underlying reader ends before the
	// container does.
	ErrTruncated = errors.New("snap: truncated snapshot")
	// ErrMismatch is returned when a snapshot's algorithm tag or shape does
	// not match the instance it is being restored into.
	ErrMismatch = errors.New("snap: snapshot does not match receiver")
	// ErrVersion is returned when a snapshot's version is not supported by
	// the running code.
	ErrVersion = errors.New("snap: unsupported snapshot version")
)

// maxLen bounds every length prefix read from a container, so corrupt data
// cannot provoke a pathological allocation before the checksum is verified.
const maxLen = 1 << 30

// Buffer is the byte slice a Writer appends to. A Writer made on a *Buffer
// appends its container to B in place: that is how containers nest (a
// parent's Raw is its Buffer) and embed in an envelope. A Writer made on any
// other io.Writer fills a pooled Buffer and writes it out in one call at
// Close.
type Buffer struct{ B []byte }

// Write appends p, so a Snapshotter that does not use this package can still
// write into a parent container.
func (b *Buffer) Write(p []byte) (int, error) {
	b.B = append(b.B, p...)
	return len(p), nil
}

// maxPooledBuf is the largest Buffer PutBuffer keeps; a bigger one is left
// to the garbage collector rather than pinned by the pool.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns an empty Buffer from a pool. Return it with PutBuffer
// once its bytes are no longer referenced.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// PutBuffer returns b to the pool.
func PutBuffer(b *Buffer) {
	if cap(b.B) <= maxPooledBuf {
		bufPool.Put(b)
	}
}

// Writer serializes one SCSTATE1 container. Create with NewWriter, write the
// payload with the typed field methods, and call Close exactly once to emit
// the checksum trailer.
type Writer struct {
	buf   *Buffer   // the slice the container is appended to
	start int       // offset of the container's magic in buf.B
	dst   io.Writer // Close's destination; nil when buf is the caller's
	err   error
}

// NewWriter starts a container for the given algorithm tag and layout
// version, writing the magic and header immediately.
func NewWriter(w io.Writer, algo string, version uint64) *Writer {
	sw := &Writer{}
	if b, ok := w.(*Buffer); ok {
		sw.buf, sw.start = b, len(b.B)
	} else {
		sw.buf, sw.dst = GetBuffer(), w
	}
	sw.buf.B = append(sw.buf.B, Magic...)
	sw.String(algo)
	sw.U64(version)
	return sw
}

// Raw returns the payload writer, for embedding a nested container (its
// bytes are covered by this container's CRC).
func (w *Writer) Raw() io.Writer { return w.buf }

// Fail latches err (if the writer has not already failed). Close returns it.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// zigzag maps a signed value to the unsigned varint binary.PutVarint writes.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) { w.buf.B = frame.AppendUvarint(w.buf.B, v) }

// I64 writes a signed (zigzag) varint.
func (w *Writer) I64(v int64) { w.buf.B = frame.AppendUvarint(w.buf.B, zigzag(v)) }

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a single byte 0/1.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf.B = append(w.buf.B, b)
}

// F64 writes a float64 as its IEEE-754 bits, fixed 8 bytes little-endian
// (bit-exact round trip, including NaN payloads).
func (w *Writer) F64(v float64) { w.U64Fixed(math.Float64bits(v)) }

// U64Fixed writes v as fixed 8 bytes little-endian (used for dense bitset
// words, where varint encoding would bloat high-entropy values).
func (w *Writer) U64Fixed(v uint64) { w.buf.B = binary.LittleEndian.AppendUint64(w.buf.B, v) }

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.buf.B = append(w.buf.B, p...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf.B = append(w.buf.B, s...)
}

// appendVarints appends the length of v and then every element as a signed
// varint: the one loop behind I64s, I32s, Ints and snap.SaveSetIDs.
func appendVarints[T ~int64 | ~int32 | ~int](w *Writer, v []T) {
	b := frame.AppendUvarint(w.buf.B, uint64(len(v)))
	for _, x := range v {
		b = frame.AppendUvarint(b, zigzag(int64(x)))
	}
	w.buf.B = b
}

// I64s writes a length-prefixed slice of signed varints.
func (w *Writer) I64s(v []int64) { appendVarints(w, v) }

// I32s writes a length-prefixed slice of signed varints.
func (w *Writer) I32s(v []int32) { appendVarints(w, v) }

// Ints writes a length-prefixed slice of signed varints.
func (w *Writer) Ints(v []int) { appendVarints(w, v) }

// Bools writes a length-prefixed bit-packed bool slice (8 per byte).
func (w *Writer) Bools(v []bool) {
	b := frame.AppendUvarint(w.buf.B, uint64(len(v)))
	var acc byte
	for i, x := range v {
		if x {
			acc |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(v)&7 != 0 {
		b = append(b, acc)
	}
	w.buf.B = b
}

// Err returns the writer's sticky error.
func (w *Writer) Err() error { return w.err }

// Close appends the CRC-32 trailer, computed once over the container, and —
// unless the container was appended to the caller's Buffer — writes the
// container to the destination in one call. It returns the first error
// encountered, the destination's included. The trailer itself is not
// covered by the checksum (SCTRACE1 discipline).
func (w *Writer) Close() error {
	if w.buf == nil {
		return w.err // already closed
	}
	if w.err == nil {
		b := w.buf.B
		w.buf.B = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[w.start:]))
		if w.dst != nil {
			_, w.err = w.dst.Write(w.buf.B)
		}
	}
	if w.dst != nil {
		PutBuffer(w.buf)
	}
	w.buf = nil
	return w.err
}

// Reader deserializes one SCSTATE1 container. Create with NewReader (which
// consumes and validates the header), read the payload with the typed field
// methods — mirror images of the Writer's — and call Close exactly once to
// consume and verify the checksum trailer.
//
// Reader decodes in place: from the unread bytes of a *bytes.Buffer, from a
// parent Reader's bytes (Raw), or from one copy of a *bytes.Reader's unread
// bytes. A successful Close advances such a source by exactly the container's
// length, so containers can sit back to back. Any other io.Reader is read to
// its end first.
type Reader struct {
	b     []byte    // the bytes decoded in place
	off   int       // cursor: the next unread byte of b
	start int       // offset of the container's magic in b
	src   io.Reader // the source Close advances past the container
	err   error
	algo  string
	ver   uint64
}

// span is the io.Reader a Reader's Raw returns. A NewReader on it decodes
// the nested container in place from the parent's bytes and hands the
// parent's cursor back at Close.
type span struct{ r *Reader }

// Read copies the parent's unread bytes, for a nested Snapshotter that does
// not use this package.
func (s span) Read(p []byte) (int, error) {
	r := s.r
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

// ReadAll returns everything left in r and consumes it: in place for a
// *bytes.Buffer, in one exact-size copy for a *bytes.Reader, and through
// io.ReadAll for any other reader.
func ReadAll(r io.Reader) ([]byte, error) {
	switch s := r.(type) {
	case *bytes.Buffer:
		return s.Next(s.Len()), nil
	case *bytes.Reader:
		b := make([]byte, s.Len())
		_, err := io.ReadFull(s, b)
		return b, err
	}
	return io.ReadAll(r)
}

// NewReader consumes the magic and header. If algo is non-empty, a container
// tagged with a different algorithm fails with ErrMismatch; pass "" to accept
// any tag (inspection tools) and read it back with Algo.
func NewReader(r io.Reader, algo string) (*Reader, error) {
	sr := &Reader{src: r}
	switch s := r.(type) {
	case span:
		sr.b, sr.off = s.r.b, s.r.off
	case *bytes.Buffer:
		sr.b = s.Bytes()
	default:
		b, err := ReadAll(r)
		if err != nil {
			return nil, err
		}
		sr.b = b
	}
	sr.start = sr.off
	if rest := len(sr.b) - sr.off; rest < len(Magic) {
		return nil, fmt.Errorf("%w: magic: %d of %d bytes", ErrTruncated, rest, len(Magic))
	}
	if got := sr.b[sr.off : sr.off+len(Magic)]; string(got) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, got)
	}
	sr.off += len(Magic)
	sr.algo = sr.StringV()
	sr.ver = sr.U64()
	if sr.err != nil {
		return nil, sr.err
	}
	if algo != "" && sr.algo != algo {
		return nil, fmt.Errorf("%w: snapshot is for algorithm %q, restoring into %q", ErrMismatch, sr.algo, algo)
	}
	return sr, nil
}

// Algo returns the container's algorithm tag.
func (r *Reader) Algo() string { return r.algo }

// Version returns the container's layout version.
func (r *Reader) Version() uint64 { return r.ver }

// Raw returns the payload reader, for extracting a nested container (its
// bytes are covered by this container's CRC).
func (r *Reader) Raw() io.Reader { return span{r} }

// Fail latches err (if the reader has not already failed).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Failf latches a formatted error.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

// short latches ErrTruncated for a field of need bytes that the source
// does not hold.
func (r *Reader) short(need int) {
	r.Failf("%w: %d-byte field, %d bytes left", ErrTruncated, need, len(r.b)-r.off)
}

// varintErr latches the failure binary.Uvarint reports as n <= 0: n == 0
// means the bytes ended mid-varint, n < 0 a varint overflowing 64 bits — a
// malformed encoding, not a short read.
func (r *Reader) varintErr(n int) {
	if n == 0 {
		r.Failf("%w: varint: %v", ErrTruncated, io.ErrUnexpectedEOF)
	} else {
		r.Failf("%w: varint overflows 64 bits", ErrCorrupt)
	}
}

// take consumes n bytes, or latches ErrTruncated and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.short(n)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.varintErr(n)
		return 0
	}
	r.off += n
	return v
}

// I64 reads a signed varint.
func (r *Reader) I64() int64 {
	ux := r.U64()
	return int64(ux>>1) ^ -int64(ux&1)
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// I32 reads an int32, failing if the stored value overflows.
func (r *Reader) I32() int32 {
	v := r.I64()
	if v != int64(int32(v)) {
		r.Failf("%w: value %d overflows int32", ErrCorrupt, v)
		return 0
	}
	return int32(v)
}

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	p := r.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		r.Failf("%w: bool byte %#x", ErrCorrupt, p[0])
		return false
	}
	return p[0] == 1
}

// F64 reads a float64 written by Writer.F64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64Fixed()) }

// U64Fixed reads a fixed 8-byte little-endian value.
func (r *Reader) U64Fixed() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Len reads a length prefix, failing if it exceeds the allocation bound or
// could not fit in the bytes left (no element takes less than a bit, the
// packing of Bools), so a corrupt length cannot size an allocation far
// beyond the data.
func (r *Reader) Len() int {
	v := r.U64()
	if v > maxLen {
		r.Failf("%w: length %d exceeds bound", ErrCorrupt, v)
		return 0
	}
	if left := uint64(len(r.b) - r.off); v > 8*left {
		r.Failf("%w: length %d, %d bytes left", ErrTruncated, v, left)
		return 0
	}
	return int(v)
}

// count reads the length prefix of a slice of varints, failing unless the
// bytes left could hold that many (every varint takes at least one byte).
func (r *Reader) count() int {
	n := r.Len()
	if r.err == nil && n > len(r.b)-r.off {
		r.short(n)
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice into a new slice of its own.
func (r *Reader) Bytes() []byte {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	return bytes.Clone(r.take(n))
}

// StringV reads a length-prefixed string.
func (r *Reader) StringV() string {
	n := r.count()
	if r.err != nil {
		return ""
	}
	return string(r.take(n))
}

// fillVarints decodes len(dst) signed varints into dst, failing on a value
// outside [lo, hi]: the one tight loop behind every bulk varint reader.
func fillVarints[T ~int64 | ~int32 | ~int](r *Reader, dst []T, lo, hi int64) {
	if r.err != nil {
		return
	}
	b, off := r.b, r.off
	for i := range dst {
		var ux uint64
		if off < len(b) && b[off] < 0x80 {
			ux = uint64(b[off])
			off++
		} else if off+1 < len(b) && b[off+1] < 0x80 { // two bytes, the first continued
			ux = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else {
			var n int
			ux, n = binary.Uvarint(b[off:])
			if n <= 0 {
				r.off = off
				r.varintErr(n)
				return
			}
			off += n
		}
		x := int64(ux>>1) ^ -int64(ux&1)
		if x < lo || x > hi {
			r.off = off
			r.Failf("%w: value %d outside [%d,%d]", ErrCorrupt, x, lo, hi)
			return
		}
		dst[i] = T(x)
	}
	r.off = off
}

// varints reads a length-prefixed slice of signed varints within [lo, hi].
func varints[T ~int64 | ~int32 | ~int](r *Reader, lo, hi int64) []T {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]T, n)
	fillVarints(r, v, lo, hi)
	if r.err != nil {
		return nil
	}
	return v
}

// I64s reads a length-prefixed slice of signed varints.
func (r *Reader) I64s() []int64 { return varints[int64](r, math.MinInt64, math.MaxInt64) }

// I32s reads a length-prefixed slice of signed varints.
func (r *Reader) I32s() []int32 { return varints[int32](r, math.MinInt32, math.MaxInt32) }

// Ints reads a length-prefixed slice of signed varints.
func (r *Reader) Ints() []int { return varints[int](r, math.MinInt, math.MaxInt) }

// FillI32s decodes len(dst) signed varints into dst, with no length prefix,
// failing on a value that overflows int32. Dense tables whose length is
// implied by an earlier field load through it in one loop.
//
// It is kept out of line: inlined into another package, it exposes the
// generic fillVarints call there, and that package's escape analysis then
// moves a caller's stack buffer to the heap (dense.StampedSet.Load's chunk).
//
//go:noinline
func (r *Reader) FillI32s(dst []int32) { fillVarints(r, dst, math.MinInt32, math.MaxInt32) }

// I32sInto reads a slice written by I32s into dst, failing unless the
// stored length matches exactly.
func (r *Reader) I32sInto(dst []int32) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Failf("%w: int32 slice length %d, receiver holds %d", ErrMismatch, n, len(dst))
		return
	}
	r.FillI32s(dst)
}

// packed consumes the bit-packed bytes of n bools.
func (r *Reader) packed(n int) []byte { return r.take((n + 7) / 8) }

// unpack expands the bit-packed bools p into dst.
func unpack(dst []bool, p []byte) {
	for i := range dst {
		dst[i] = p[i>>3]&(1<<(uint(i)&7)) != 0
	}
}

// Bools reads a length-prefixed bit-packed bool slice.
func (r *Reader) Bools() []bool {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	p := r.packed(n)
	if p == nil {
		return nil
	}
	v := make([]bool, n)
	unpack(v, p)
	return v
}

// BoolsInto reads a bit-packed bool slice into dst, failing unless the
// stored length matches exactly.
func (r *Reader) BoolsInto(dst []bool) {
	n := r.Len()
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Failf("%w: bool slice length %d, receiver holds %d", ErrMismatch, n, len(dst))
		return
	}
	if p := r.packed(n); p != nil {
		unpack(dst, p)
	}
}

// Err returns the reader's sticky error.
func (r *Reader) Err() error { return r.err }

// Close consumes the 4-byte CRC trailer (outside the checksum), verifies it
// against the container's span in one pass, and advances the source past
// the container.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	p := r.take(4)
	if p == nil {
		return r.err
	}
	if got, want := crc32.ChecksumIEEE(r.b[r.start:r.off-4]), binary.LittleEndian.Uint32(p); got != want {
		r.err = fmt.Errorf("%w: checksum %#x, trailer says %#x", ErrCorrupt, got, want)
		return r.err
	}
	switch s := r.src.(type) {
	case span:
		s.r.off = r.off
	case *bytes.Buffer:
		s.Next(r.off)
	case *bytes.Reader:
		_, r.err = s.Seek(int64(r.off-len(r.b)), io.SeekCurrent)
	}
	return r.err
}
