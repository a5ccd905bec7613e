// Package frame is the length-prefix + CRC-32 framing every serving
// protocol in this repository shares: SCWIRE1 (client ↔ shard), SCSTOR1
// (shard ↔ checkpoint store) and the router's read of a connection's
// opening frame. One frame on the wire is
//
//	u32le(len(payload)) payload u32le(crc32(payload))
//
// with 0 < len(payload) ≤ the protocol's payload bound. The package knows
// nothing about what a payload means: each protocol keeps only its message
// encoders (appending to the buffer Begin returns) and its parsers (a
// Cursor over the payload Read returns).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// ErrWire is the family error for malformed framed traffic: bad CRC,
// truncated or oversized frames, and payloads a Cursor cannot decode.
// Each protocol re-exports it under its own name.
var ErrWire = errors.New("wire protocol error")

const (
	maxWriteQueue = 64 << 10 // a coalescing IO flushes once this much is queued
	maxPooledBuf  = 1 << 20  // a pooled IO drops buffers grown past this
	maxPooled     = 256      // free-list bound: a connection spike is not pinned forever
)

// IO reads and writes frames over one connection, reusing its buffers so
// steady-state frame traffic allocates nothing. Not safe for concurrent
// use; each endpoint owns one per connection side.
//
// Reads go through a sliding window so one syscall can surface several
// queued frames. Writes seal frames back-to-back into one reusable buffer
// and, when coalescing, accumulate until a size threshold or the next Read
// ships them as one write. Read always flushes first, so a request and its
// reply can never deadlock on unsent bytes.
type IO struct {
	rw  io.ReadWriter
	max int // payload bound of the protocol

	// Read side: rbuf[rpos:rlen] holds bytes received but not yet
	// consumed; rbuf[last:rpos] is the frame Read returned last.
	rbuf  []byte
	rpos  int
	rlen  int
	last  int
	rsize int // initial window size

	// Write side: sealed frames accumulate back-to-back in wbuf; fstart
	// marks where the length prefix of the frame under construction goes.
	wbuf     []byte
	fstart   int
	coalesce bool

	// ArmRead and ArmWrite, when set, run before each network read and
	// write (deadline re-arming).
	ArmRead, ArmWrite func()
}

// New returns a non-coalescing IO over rw with an initial read window of
// window bytes, accepting payloads up to maxPayload bytes.
func New(rw io.ReadWriter, window, maxPayload int) *IO {
	return &IO{rw: rw, rsize: window, max: maxPayload}
}

// Pool recycles coalescing IOs across connections so the read window and
// sealed-frame buffers survive and a fresh connection's frame traffic
// allocates nothing. It is a plain free-list rather than a sync.Pool: the
// warm buffers are the point, and sync.Pool drops its contents at every GC
// cycle — with session churn that showed up as steady-state allocation in
// the serving benchmarks.
type Pool struct {
	mu          sync.Mutex
	window, max int
	xs          []*IO
}

// NewPool returns a free-list of IOs built as New(rw, window, maxPayload).
func NewPool(window, maxPayload int) *Pool {
	return &Pool{window: window, max: maxPayload}
}

// Get returns a coalescing IO over rw.
func (p *Pool) Get(rw io.ReadWriter) *IO {
	p.mu.Lock()
	var f *IO
	if n := len(p.xs); n > 0 {
		f = p.xs[n-1]
		p.xs[n-1] = nil
		p.xs = p.xs[:n-1]
	}
	p.mu.Unlock()
	if f == nil {
		f = New(nil, p.window, p.max)
	}
	f.rw = rw
	f.coalesce = true
	return f
}

// Put detaches the connection and recycles the buffers. The caller settles
// queued writes first (Flush to deliver them; otherwise they are dropped).
func (p *Pool) Put(f *IO) {
	f.rw = nil
	f.ArmRead, f.ArmWrite = nil, nil
	f.rpos, f.rlen, f.last = 0, 0, 0
	f.wbuf = f.wbuf[:0]
	f.fstart = 0
	f.coalesce = false
	if cap(f.rbuf) > maxPooledBuf {
		f.rbuf = nil
	}
	if cap(f.wbuf) > maxPooledBuf {
		f.wbuf = nil
	}
	p.mu.Lock()
	if len(p.xs) < maxPooled {
		p.xs = append(p.xs, f)
	}
	p.mu.Unlock()
}

// refill compacts the window and reads more bytes from the connection. One
// refill typically surfaces several queued frames. When the window is full
// but the caller still needs more (a frame larger than the window), it
// grows toward the frame bound.
func (f *IO) refill() error {
	if f.rbuf == nil {
		f.rbuf = make([]byte, f.rsize)
	}
	if f.rpos > 0 {
		f.rlen = copy(f.rbuf, f.rbuf[f.rpos:f.rlen])
		f.rpos, f.last = 0, 0
	}
	if f.rlen == len(f.rbuf) {
		grown := make([]byte, min(2*len(f.rbuf), f.max+8))
		f.rlen = copy(grown, f.rbuf[:f.rlen])
		f.rbuf = grown
	}
	if f.ArmRead != nil {
		f.ArmRead()
	}
	n, err := f.rw.Read(f.rbuf[f.rlen:])
	f.rlen += n
	if n > 0 {
		return nil // surface err, if any, on the next refill
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// Read flushes queued writes, then reads one frame and returns its
// payload. The payload aliases the read window and is only valid until the
// next Read. At a clean frame boundary the connection's own error (io.EOF,
// a timeout) comes back unwrapped so callers can classify disconnects;
// everything else wraps ErrWire or is io.ErrUnexpectedEOF.
func (f *IO) Read() ([]byte, error) {
	if err := f.Flush(); err != nil {
		return nil, err
	}
	for f.rlen-f.rpos < 4 {
		if err := f.refill(); err != nil {
			if f.rlen == f.rpos {
				return nil, err
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	n := binary.LittleEndian.Uint32(f.rbuf[f.rpos:])
	if n == 0 || n > uint32(f.max) {
		return nil, fmt.Errorf("%w: frame payload length %d", ErrWire, n)
	}
	need := 4 + int(n) + 4 // header + payload + CRC trailer
	for f.rlen-f.rpos < need {
		if err := f.refill(); err != nil {
			return nil, fmt.Errorf("%w: truncated frame: %v", ErrWire, err)
		}
	}
	f.last = f.rpos
	body := f.rbuf[f.rpos+4 : f.rpos+need]
	f.rpos += need
	payload, trailer := body[:n], body[n:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrWire)
	}
	return payload, nil
}

// Replay returns the frame Read returned last, verbatim (length prefix,
// payload, CRC trailer), followed by every byte the read window took past
// it. A proxy that inspects a connection's first frame and then hands the
// connection on writes these to the next hop before splicing. Valid until
// the next Read.
func (f *IO) Replay() []byte { return f.rbuf[f.last:f.rlen] }

// Begin starts a frame in the write buffer and returns the buffer to
// append the payload to; End seals it.
func (f *IO) Begin() []byte {
	f.fstart = len(f.wbuf)
	return append(f.wbuf, 0, 0, 0, 0)
}

// End back-fills the length prefix of the frame Begin started (b is the
// buffer Begin returned with the payload appended), appends the CRC
// trailer and queues the sealed frame. Without coalescing — or once the
// queue crosses its size threshold — the queue is flushed immediately. A
// payload over the bound is abandoned with an ErrWire error.
func (f *IO) End(b []byte) error {
	payload := b[f.fstart+4:]
	if len(payload) > f.max {
		return fmt.Errorf("%w: frame payload %d exceeds limit", ErrWire, len(payload))
	}
	binary.LittleEndian.PutUint32(b[f.fstart:], uint32(len(payload)))
	f.wbuf = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	if !f.coalesce || len(f.wbuf) >= maxWriteQueue {
		return f.Flush()
	}
	return nil
}

// QueueRaw queues unframed bytes (a connection magic) ahead of the next
// flush, so they share one write with the first frame.
func (f *IO) QueueRaw(b []byte) { f.wbuf = append(f.wbuf, b...) }

// Flush ships every queued frame as one write.
func (f *IO) Flush() error {
	if len(f.wbuf) == 0 {
		return nil
	}
	if f.ArmWrite != nil {
		f.ArmWrite()
	}
	_, err := f.rw.Write(f.wbuf)
	f.wbuf = f.wbuf[:0]
	return err
}

// AppendUvarint is binary.AppendUvarint without the per-value stack
// spill: bulk encoders call it once per field.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// AppendString appends a uvarint length and the bytes of s.
func AppendString(b []byte, s string) []byte {
	return append(AppendUvarint(b, uint64(len(s))), s...)
}

// AppendF64 appends v as 8 little-endian bytes.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// Cursor decodes a payload in place. It latches the first error, so call
// sites decode whole messages without per-field plumbing and check Done
// once; every error wraps ErrWire.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

func (c *Cursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrWire, fmt.Sprintf(format, args...))
	}
}

// Byte decodes one raw byte.
func (c *Cursor) Byte() byte {
	if b := c.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// U64 decodes a uvarint.
func (c *Cursor) U64() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("truncated varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// I64 decodes a signed varint.
func (c *Cursor) I64() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("truncated varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

// Count decodes a uvarint element count, failing if it exceeds the bytes
// left (every element takes at least one), so a corrupt count cannot
// provoke a huge allocation.
func (c *Cursor) Count() int {
	n := c.U64()
	if n > uint64(len(c.b)) {
		c.fail("count %d exceeds frame", n)
		return 0
	}
	return int(n)
}

// Str decodes a length-prefixed string.
func (c *Cursor) Str() string { return c.StrEcho("") }

// StrEcho decodes a length-prefixed string, returning prev — without
// allocating — when the bytes match it. Acks echo a token the peer already
// holds, so the steady-state reattach path decodes it for free.
func (c *Cursor) StrEcho(prev string) string {
	n := c.U64()
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.b)) {
		c.fail("string length %d exceeds frame", n)
		return ""
	}
	b := c.b[:n]
	c.b = c.b[n:]
	if prev != "" && string(b) == prev { // compiles to an alloc-free compare
		return prev
	}
	return string(b)
}

// F64 decodes 8 little-endian bytes as a float64.
func (c *Cursor) F64() float64 {
	if b := c.Raw(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Raw consumes exactly n bytes of the payload.
func (c *Cursor) Raw(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.fail("%d raw bytes exceed frame", n)
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// Rest consumes everything left.
func (c *Cursor) Rest() []byte { return c.Raw(len(c.b)) }

// Done fails unless the payload was consumed exactly, and returns the
// latched error.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.b) != 0 {
		c.fail("%d trailing bytes in frame", len(c.b))
	}
	return c.err
}
