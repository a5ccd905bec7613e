package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"streamcover/internal/setcover"
)

// fileBufSize is the default read-window size for on-disk replay: large
// enough that the kernel read path is amortized over tens of thousands of
// edges, small enough to stay resident in L2.
const fileBufSize = 256 << 10

// minFileWindow is the smallest usable read window: two maximum-length
// varints, so one edge can always be decoded without an intervening refill.
const minFileWindow = 2 * binary.MaxVarintLen64

// File is a Stream backed by an on-disk stream file (the Encode format),
// decoded lazily: edges are materialised from disk as they are consumed, so
// a stream much larger than memory can be replayed — which is the point of
// the streaming model. Reset seeks back to the first edge.
//
// OpenFile validates the magic and header eagerly but checks the CRC-32
// trailer as a side effect of the first full replay pass (single-scan open):
// the bytes are hashed as they stream through the decode window, and a
// mismatch surfaces as a sticky ErrCorrupt from Err when the pass reaches
// the end of the file. Once any pass has verified the checksum, later passes
// skip the hashing.
type File struct {
	f         *os.File
	hdr       Header
	dataStart int64  // offset of the first edge byte
	bodyLen   int64  // bytes between the header and the CRC trailer
	headerCRC uint32 // CRC-32 state after magic + header
	wantCRC   uint32 // the file's trailer
	verified  bool   // some pass ran the full body through the CRC

	// Per-pass decode state. The window rbuf[rpos:rlen] holds body bytes
	// read ahead of the decoder; refill compacts and tops it up, hashing the
	// incoming bytes while checkCRC is set.
	rbuf      []byte
	rpos      int
	rlen      int
	unread    int64 // body bytes not yet read from the file this pass
	crc       uint32
	checkCRC  bool
	remaining int
	finished  bool  // end-of-pass bookkeeping (CRC compare) has run
	pos       int   // edges decoded since Reset
	err       error // sticky decode error; stream terminates when set
	batch     []Edge
}

// OpenFile opens a stream file for lazy single-scan replay (see File).
func OpenFile(path string) (*File, error) { return openFile(path, fileBufSize) }

// openFile is OpenFile with a read window of window bytes, at least
// minFileWindow; tests shrink it to make edges straddle refills.
func openFile(path string, window int) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fs := &File{f: f}
	if err := fs.open(window); err != nil {
		f.Close()
		return nil, err
	}
	fs.Reset()
	return fs, nil
}

// open parses and validates the magic + header, records the trailer CRC and
// body extent, and allocates the read window — one bounded header read and
// one 4-byte trailer read, never a full scan.
func (fs *File) open(bufSize int) error {
	info, err := fs.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size < int64(len(magic))+4 {
		return fmt.Errorf("%w: file too short (%d bytes)", ErrTruncated, size)
	}

	// The header region is the magic plus at most three maximal uvarints,
	// clipped to the bytes actually before the trailer.
	hlen := int64(len(magic) + 3*binary.MaxVarintLen64)
	if hlen > size-4 {
		hlen = size - 4
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(fs.f, hb); err != nil {
		return fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if len(hb) < len(magic) || [8]byte(hb[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, hb[:min(len(hb), len(magic))])
	}
	off := len(magic)
	for i, dst := range []*int{&fs.hdr.N, &fs.hdr.M, &fs.hdr.E} {
		v, n := binary.Uvarint(hb[off:])
		if n == 0 {
			return fmt.Errorf("%w: header field %d: unexpected EOF", ErrTruncated, i)
		}
		if n < 0 {
			return fmt.Errorf("%w: header field %d: uvarint overflow", ErrCorrupt, i)
		}
		if v > 1<<31 {
			return fmt.Errorf("%w: header field %d overflows", ErrCorrupt, i)
		}
		*dst = int(v)
		off += n
	}
	if fs.hdr.N <= 0 || fs.hdr.M <= 0 || fs.hdr.E < 0 {
		return fmt.Errorf("%w: invalid header %+v", ErrCorrupt, fs.hdr)
	}
	fs.dataStart = int64(off)
	fs.bodyLen = size - 4 - fs.dataStart
	fs.headerCRC = crc32.Update(0, crc32.IEEETable, hb[:off])

	var trailer [4]byte
	if _, err := fs.f.ReadAt(trailer[:], size-4); err != nil {
		return fmt.Errorf("%w: trailer: %v", ErrTruncated, err)
	}
	fs.wantCRC = binary.LittleEndian.Uint32(trailer[:])
	fs.rbuf = make([]byte, bufSize)
	return nil
}

// Header returns the stream's header.
func (fs *File) Header() Header { return fs.hdr }

// Len implements Stream.
func (fs *File) Len() int { return fs.hdr.E }

// Reset implements Stream, seeking back to the first edge. It clears any
// sticky decode error from the previous pass. The first pass after open (and
// every pass until one completes cleanly) re-arms the CRC check.
func (fs *File) Reset() {
	fs.pos = 0
	fs.err = nil
	fs.rpos, fs.rlen = 0, 0
	fs.remaining = fs.hdr.E
	fs.unread = fs.bodyLen
	fs.crc = fs.headerCRC
	fs.checkCRC = !fs.verified
	fs.finished = false
	if _, err := fs.f.Seek(fs.dataStart, io.SeekStart); err != nil {
		// Seek on a regular file only fails if the file was closed; make
		// the stream empty rather than panicking mid-experiment.
		fs.remaining = 0
		fs.unread = 0
		fs.err = fmt.Errorf("stream: seek: %w", err)
		fs.finished = true
	}
}

// refill compacts the window and tops it up from the file body, folding the
// incoming bytes into the pass CRC while the pass is a verifying one.
func (fs *File) refill() error {
	if fs.rpos > 0 {
		copy(fs.rbuf, fs.rbuf[fs.rpos:fs.rlen])
		fs.rlen -= fs.rpos
		fs.rpos = 0
	}
	for fs.rlen < len(fs.rbuf) && fs.unread > 0 {
		want := int64(len(fs.rbuf) - fs.rlen)
		if want > fs.unread {
			want = fs.unread
		}
		n, err := fs.f.Read(fs.rbuf[fs.rlen : fs.rlen+int(want)])
		if n > 0 {
			if fs.checkCRC {
				fs.crc = crc32.Update(fs.crc, crc32.IEEETable, fs.rbuf[fs.rlen:fs.rlen+n])
			}
			fs.rlen += n
			fs.unread -= int64(n)
		}
		if err != nil {
			// unread was computed from the file size at open, so running out
			// early means the file shrank underneath us.
			return fmt.Errorf("%w: body ends %d bytes early: %v", ErrTruncated, fs.unread, err)
		}
	}
	return nil
}

// fillBatch decodes up to len(dst) edges directly into dst and returns how
// many were produced. A short count means end of stream or a sticky decode
// error (Err distinguishes them). It is the one decode loop behind Next,
// NextBatch and SkipTo. DecodeEdges takes every edge it can from the read
// window and stops minFileWindow bytes short of its end; the loop then
// refills, or, at the end of the body or before an edge the kernel
// rejects, decodes one edge with binary.Uvarint, which produces every
// error.
func (fs *File) fillBatch(dst []Edge) int {
	if fs.err != nil {
		return 0
	}
	if fs.remaining <= 0 {
		fs.finishPass()
		return 0
	}
	dst = dst[:min(len(dst), fs.remaining)]
	um, un := uint64(fs.hdr.M), uint64(fs.hdr.N)
	k := 0
	for k < len(dst) {
		if fs.rlen-fs.rpos < minFileWindow && fs.unread > 0 {
			if err := fs.refill(); err != nil {
				fs.fail(err)
				break
			}
		}
		d, next := DecodeEdges(fs.rbuf[:fs.rlen], fs.rpos, dst[k:], um, un)
		fs.rpos, k = next, k+d
		fs.pos += d
		fs.remaining -= d
		if k == len(dst) || fs.rlen-fs.rpos < minFileWindow && fs.unread > 0 {
			continue
		}
		s, n1 := binary.Uvarint(fs.rbuf[fs.rpos:fs.rlen])
		if n1 <= 0 {
			fs.fail(fs.varintErr(n1, "set"))
			break
		}
		u, n2 := binary.Uvarint(fs.rbuf[fs.rpos+n1 : fs.rlen])
		if n2 <= 0 {
			fs.fail(fs.varintErr(n2, "elem"))
			break
		}
		if s >= um || u >= un {
			fs.fail(fmt.Errorf("%w: edge %d (%d,%d) out of range", ErrCorrupt, fs.pos, s, u))
			break
		}
		fs.rpos += n1 + n2
		dst[k] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
		k++
		fs.pos++
		fs.remaining--
	}
	if fs.remaining == 0 && fs.err == nil {
		fs.finishPass()
	}
	return k
}

// varintErr classifies a failed in-window uvarint decode: the window only
// runs out when the body itself has ended (truncation); a malformed 10-byte
// varint is corruption.
func (fs *File) varintErr(n int, field string) error {
	if n == 0 {
		return fmt.Errorf("%w: edge %d %s: unexpected EOF", ErrTruncated, fs.pos, field)
	}
	return fmt.Errorf("%w: edge %d %s: uvarint overflow", ErrCorrupt, fs.pos, field)
}

// finishPass runs once when a pass has decoded all E edges: any body bytes
// beyond the last edge are corruption, and on a verifying pass the folded
// CRC must match the trailer. A clean verifying pass marks the file verified
// so later passes skip the hashing.
func (fs *File) finishPass() {
	if fs.finished {
		return
	}
	fs.finished = true
	if extra := int64(fs.rlen-fs.rpos) + fs.unread; extra > 0 {
		fs.fail(fmt.Errorf("%w: %d trailing bytes after edge %d", ErrCorrupt, extra, fs.pos))
		return
	}
	if fs.checkCRC {
		if fs.crc != fs.wantCRC {
			fs.fail(fmt.Errorf("%w: checksum mismatch", ErrCorrupt))
			return
		}
		fs.verified = true
	}
}

// Next implements Stream. A decoding error terminates the stream early; Err
// reports it. Note that on a lazily-opened file a CRC mismatch is only
// detectable once the pass reaches the end of the body, so a corrupt file
// yields its (corrupt) edges first and fails on the final call.
func (fs *File) Next() (Edge, bool) {
	var one [1]Edge
	if fs.fillBatch(one[:]) == 0 {
		return Edge{}, false
	}
	return one[0], true
}

// fail records the first decode error and terminates the stream.
func (fs *File) fail(err error) {
	fs.remaining = 0
	fs.finished = true
	if fs.err == nil {
		fs.err = err
	}
}

// Err returns the sticky decode error that terminated the current pass, nil
// if the pass ended cleanly (or is still in progress). Reset clears it.
func (fs *File) Err() error { return fs.err }

// SkipTo implements Skipper: it decodes (and discards) edges batch-at-a-time
// until the stream is positioned at edge pos, so a resumed run fast-forwards
// an on-disk stream — validating as it goes — without dispatching the prefix
// to the algorithm. Call it only on a freshly Reset stream.
func (fs *File) SkipTo(pos int) error {
	for fs.pos < pos {
		max := pos - fs.pos
		if max > BatchSize {
			max = BatchSize
		}
		if len(fs.NextBatch(max)) == 0 {
			if fs.err != nil {
				return fs.err
			}
			return fmt.Errorf("%w: stream ended at edge %d, resume needs %d", ErrShortStream, fs.pos, pos)
		}
	}
	return nil
}

// NextBatch implements Batcher: it decodes up to max edges into an internal
// reusable buffer and returns a view of it, so a batched algorithm replays
// an on-disk stream without a per-edge virtual call or per-batch allocation.
// The view is only valid until the next NextBatch/Next/Reset call.
func (fs *File) NextBatch(max int) []Edge {
	if fs.err != nil {
		return nil
	}
	if max <= 0 || fs.remaining <= 0 {
		fs.finishPass()
		return nil
	}
	if max > fs.remaining {
		max = fs.remaining
	}
	if cap(fs.batch) < max {
		fs.batch = make([]Edge, max)
	}
	return fs.batch[:fs.fillBatch(fs.batch[:max])]
}

// Close releases the underlying file.
func (fs *File) Close() error { return fs.f.Close() }

var _ Stream = (*File)(nil)
var _ Batcher = (*File)(nil)
var _ Skipper = (*File)(nil)
var _ ErrReporter = (*File)(nil)
