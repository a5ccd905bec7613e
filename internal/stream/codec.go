package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"streamcover/internal/setcover"
)

// Binary stream file format (used by cmd/scgen and cmd/scrun):
//
//	magic   "SCSTRM1\n"                  (8 bytes)
//	header  uvarint n, uvarint m, uvarint N
//	edges   N × (uvarint set, uvarint elem)
//	footer  4-byte little-endian CRC-32 (IEEE) of everything before it
//
// The format is self-describing and order-preserving: the file records the
// exact arrival order, so an experiment saved to disk replays identically.

var magic = [8]byte{'S', 'C', 'S', 'T', 'R', 'M', '1', '\n'}

// Header describes an encoded stream.
type Header struct {
	N int // universe size
	M int // number of sets
	E int // number of edges (stream length)
}

// ErrCorrupt is returned when a stream file fails checksum or structural
// validation.
var ErrCorrupt = errors.New("stream: corrupt stream file")

// ErrTruncated is the ErrCorrupt subclass for damage that looks like a
// short read — a header or payload that ends before its declared length.
// It wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) holds for both.
var ErrTruncated = fmt.Errorf("%w (truncated)", ErrCorrupt)

// appendEdgesScalar is AppendEdges' portable kernel and the reference its
// block kernel is held to. It writes edges into b from at, a uvarint set
// then a uvarint element per edge, and returns the position after them; b
// must hold 2*binary.MaxVarintLen64 bytes per edge from at. An edge whose
// set and element both lie in [0, 2^14), one or two bytes each, is written
// with no branch on either width: the continuation bit is computed, both
// encodings go out in one 4-byte store, and the cursor advances by the
// widths actually used. Any other edge (wider IDs, or negative ones, which
// sign-extend to 10-byte varints) falls back to binary.PutUvarint. The
// bytes are binary.AppendUvarint's.
func appendEdgesScalar(b []byte, at int, edges []Edge) int {
	for _, e := range edges {
		s, u := uint32(e.Set), uint32(e.Elem)
		if s|u >= 1<<14 {
			at += binary.PutUvarint(b[at:], uint64(e.Set))
			at += binary.PutUvarint(b[at:], uint64(e.Elem))
			continue
		}
		cs, cu := (s+0x3f80)>>14, (u+0x3f80)>>14 // 1 iff the ID needs 2 bytes
		ws := 1 + cs
		binary.LittleEndian.PutUint32(b[at:at+4:at+4], uvarint14(s, cs)|uvarint14(u, cu)<<(8*ws&31))
		at += int(ws + 1 + cu)
	}
	return at
}

// uvarint14 is the uvarint encoding of v < 2^14 as a little-endian uint16,
// given c, 1 iff v needs a second byte: the low 7 bits with the
// continuation bit c, then the high 7 bits (zero when c is 0).
func uvarint14(v, c uint32) uint32 { return v&0x7f | c<<7 | v>>7<<8 }

// decodeEdgesScalar is DecodeEdges' portable kernel and the reference its
// block kernel is held to. It decodes edges in AppendEdges' layout from
// b[pos:] into dst while a worst-case edge (two maximal varints) fits in
// what is left of b, and returns how many it decoded and the position
// after them. It stops before an edge that is truncated, overflows, or has
// a set not below m or an element not below n.
//
// Each step loads the edge's first 4 bytes. When neither varint runs past
// 2 bytes, as for every ID below 2^14, it takes each width from the first
// byte's continuation bit instead of branching on it, so IDs on both sides
// of the 1/2-byte boundary at 128 cost no mispredicted branches. The one
// branch on the bytes, predictable on real streams, sends an edge with a
// wider varint to binary.Uvarint. The load slices b[pos : pos+4 : pos+4]:
// with a constant capacity the compiler skips the pointer masking that
// b[pos:] would add to the loop-carried chain through pos.
func decodeEdgesScalar(b []byte, pos int, dst []Edge, m, n uint64) (int, int) {
	end := len(b) - 2*binary.MaxVarintLen64
	for i := range dst {
		if pos > end {
			return i, pos
		}
		x := binary.LittleEndian.Uint32(b[pos : pos+4 : pos+4])
		cs := x >> 7 & 1
		y := x >> (8 << cs & 31) // the element's bytes
		cu := y >> 7 & 1
		var s, u uint64
		if (x&(x>>8)|y&(y>>8))&0x80 == 0 { // both varints end within 2 bytes
			s = uint64(x&0x7f | x>>1&0x3f80&-cs)
			u = uint64(y&0x7f | y>>1&0x3f80&-cu)
			if s >= m || u >= n {
				return i, pos
			}
			pos += int(2 + cs + cu)
		} else {
			var ws, wu int
			if s, ws = binary.Uvarint(b[pos:]); ws > 0 {
				u, wu = binary.Uvarint(b[pos+ws:])
			}
			if wu <= 0 || s >= m || u >= n {
				return i, pos
			}
			pos += ws + wu
		}
		dst[i] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
	}
	return len(dst), pos
}

// Encode writes hdr and edges to w in the binary format. It appends the
// edges BatchSize at a time into one reused buffer, folds each chunk into
// the CRC and writes it, so its memory stays bounded whatever the stream
// length; the trailer rides on the last chunk.
func Encode(w io.Writer, hdr Header, edges []Edge) error {
	if hdr.E != len(edges) {
		return fmt.Errorf("stream: header says %d edges, got %d", hdr.E, len(edges))
	}
	if hdr.N <= 0 || hdr.M <= 0 {
		return fmt.Errorf("stream: invalid header %+v", hdr)
	}
	b := binary.AppendUvarint(append([]byte(nil), magic[:]...), uint64(hdr.N))
	b = binary.AppendUvarint(b, uint64(hdr.M))
	b = binary.AppendUvarint(b, uint64(hdr.E))
	var crc uint32
	for lo := 0; ; lo += BatchSize {
		chunk := edges[lo:min(lo+BatchSize, len(edges))]
		for _, e := range chunk {
			if e.Set < 0 || int(e.Set) >= hdr.M || e.Elem < 0 || int(e.Elem) >= hdr.N {
				return fmt.Errorf("stream: edge %v out of range for header %+v", e, hdr)
			}
		}
		b = AppendEdges(b, chunk)
		crc = crc32.Update(crc, crc32.IEEETable, b)
		if lo+BatchSize >= len(edges) {
			// The CRC covers magic+header+edges, not itself.
			_, err := w.Write(binary.LittleEndian.AppendUint32(b, crc))
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
}

// Decode reads a stream file produced by Encode, verifying structure and
// checksum. It returns ErrCorrupt (wrapped) on any damage. The whole file is
// read into memory, which matches how streams are used here (streams of
// laptop-scale experiments fit comfortably; the format is not intended for
// larger-than-memory data). The edge slice is sized by what the payload can
// hold, never by the header alone, so a short file that claims many edges
// fails without a matching allocation.
func Decode(r io.Reader) (Header, []Edge, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Header{}, nil, fmt.Errorf("%w: read: %v", ErrCorrupt, err)
	}
	if len(data) < len(magic)+4 {
		return Header{}, nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return Header{}, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	br := bytes.NewReader(payload)

	var gotMagic [8]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return Header{}, nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if gotMagic != magic {
		return Header{}, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, gotMagic[:])
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }

	var hdr Header
	for i, dst := range []*int{&hdr.N, &hdr.M, &hdr.E} {
		v, err := readUvarint()
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: header field %d: %v", ErrCorrupt, i, err)
		}
		if v > 1<<31 {
			return Header{}, nil, fmt.Errorf("%w: header field %d overflows", ErrCorrupt, i)
		}
		*dst = int(v)
	}
	if hdr.N <= 0 || hdr.M <= 0 || hdr.E < 0 {
		return Header{}, nil, fmt.Errorf("%w: invalid header %+v", ErrCorrupt, hdr)
	}
	// Every edge takes at least two bytes, so a payload that cannot hold E
	// edges fails in the loop below before it needs more than this.
	edges := make([]Edge, min(hdr.E, br.Len()/2))
	i, pos := DecodeEdges(payload, len(payload)-br.Len(), edges, uint64(hdr.M), uint64(hdr.N))
	br.Reset(payload[pos:])
	for ; i < hdr.E; i++ {
		s, err := readUvarint()
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: edge %d set: %v", ErrCorrupt, i, err)
		}
		u, err := readUvarint()
		if err != nil {
			return Header{}, nil, fmt.Errorf("%w: edge %d elem: %v", ErrCorrupt, i, err)
		}
		if s >= uint64(hdr.M) || u >= uint64(hdr.N) {
			return Header{}, nil, fmt.Errorf("%w: edge %d (%d,%d) out of range", ErrCorrupt, i, s, u)
		}
		edges[i] = Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
	}
	if br.Len() != 0 {
		return Header{}, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, br.Len())
	}
	return hdr, edges, nil
}

// InstanceFromEdges reconstructs the Set Cover instance underlying a decoded
// stream: m sets over a universe of size n, memberships taken from the
// edges. Sets that never appear in the stream are (legitimately) empty.
func InstanceFromEdges(hdr Header, edges []Edge) (*setcover.Instance, error) {
	b := setcover.NewBuilder(hdr.N)
	b.EnsureSets(hdr.M)
	for _, e := range edges {
		if err := b.AddEdge(e.Set, e.Elem); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
