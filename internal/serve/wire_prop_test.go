package serve

// Property tests for the edges-frame codec. parseEdgesInto's branch-free
// kernel and its per-edge binary.Uvarint loop must agree byte-for-byte
// with the obvious per-edge reference decoder — same accepted edges, same
// rejections — across every varint width, truncation point and range
// violation; the reference below is the decoder the transport shipped
// with before the blocked rewrite. writeEdges' bulk encoder must seal the
// frame the per-field binary.AppendUvarint reference encoder would.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"streamcover/internal/setcover"
	"streamcover/internal/stream"
	"streamcover/internal/xrand"
)

// parseEdgesReference is the straightforward one-varint-at-a-time decoder
// parseEdgesInto must match exactly (on accepted input and on the
// typed-error contract for rejected input).
func parseEdgesReference(body []byte, dst []stream.Edge, n, m int) (int, error) {
	k, sz := binary.Uvarint(body)
	if sz <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrWire)
	}
	if k == 0 || k > uint64(len(dst)) {
		return 0, fmt.Errorf("%w: edge batch of %d (limit %d)", ErrWire, k, len(dst))
	}
	b := body[sz:]
	um, un := uint64(m), uint64(n)
	for i := 0; i < int(k); i++ {
		s, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrWire)
		}
		b = b[w:]
		u, w2 := binary.Uvarint(b)
		if w2 <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrWire)
		}
		b = b[w2:]
		if s >= um || u >= un {
			return 0, fmt.Errorf("%w: edge (%d,%d) out of range for n=%d m=%d", ErrWire, s, u, n, m)
		}
		dst[i] = stream.Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes in frame", ErrWire, len(b))
	}
	return int(k), nil
}

// varintValueOfWidth picks a random value whose unsigned varint encoding
// is exactly w bytes (1..10), so bodies cover every decode path: the
// unrolled 1- and 2-byte cases, the Uvarint fallback, and 10-byte maximal
// encodings.
func varintValueOfWidth(rng *xrand.Rand, w int) uint64 {
	if w == 1 {
		return uint64(rng.IntN(1 << 7))
	}
	lo := uint64(1) << (7 * (w - 1))
	var hi uint64
	if w == 10 {
		hi = math.MaxUint64
	} else {
		hi = uint64(1)<<(7*w) - 1
	}
	span := hi - lo + 1
	if span == 0 { // w == 10: the span wraps; any offset is in range
		return lo + rng.Uint64()
	}
	return lo + rng.Uint64()%span
}

func TestParseEdgesMatchesReference(t *testing.T) {
	rng := xrand.New(20260809)
	dst := make([]stream.Edge, MaxBatch)
	ref := make([]stream.Edge, MaxBatch)

	check := func(tag string, body []byte, n, m int) {
		t.Helper()
		for i := range dst {
			dst[i], ref[i] = stream.Edge{}, stream.Edge{}
		}
		gotK, gotErr := parseEdgesInto(body, dst, n, m)
		refK, refErr := parseEdgesReference(body, ref, n, m)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("%s: error mismatch: blocked=%v reference=%v", tag, gotErr, refErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrWire) || !errors.Is(refErr, ErrWire) {
				t.Fatalf("%s: untyped rejection: blocked=%v reference=%v", tag, gotErr, refErr)
			}
			return
		}
		if gotK != refK {
			t.Fatalf("%s: count mismatch: blocked=%d reference=%d", tag, gotK, refK)
		}
		for i := 0; i < gotK; i++ {
			if dst[i] != ref[i] {
				t.Fatalf("%s: edge %d mismatch: blocked=%+v reference=%+v", tag, i, dst[i], ref[i])
			}
		}
	}

	// encodeBody builds a count-prefixed edges body out of raw (set, elem)
	// varint value pairs, bypassing writeEdges' range clamps so the body
	// can carry values far beyond any session shape.
	encodeBody := func(k uint64, vals []uint64) []byte {
		body := binary.AppendUvarint(nil, k)
		for _, v := range vals {
			body = binary.AppendUvarint(body, v)
		}
		return body
	}

	// Random widths, huge shape: every value valid, so the mixed-width
	// decode paths agree on accepted input. Shapes beyond 2^32 keep the
	// wide varints in range.
	const hugeN, hugeM = math.MaxInt64, math.MaxInt64
	for round := 0; round < 200; round++ {
		k := 1 + rng.IntN(64)
		vals := make([]uint64, 0, 2*k)
		for i := 0; i < 2*k; i++ {
			vals = append(vals, varintValueOfWidth(rng, 1+rng.IntN(9)))
		}
		body := encodeBody(uint64(k), vals)
		check(fmt.Sprintf("mixed-width round %d", round), body, hugeN, hugeM)

		// Every truncation of the same body must also agree (and reject).
		cut := rng.IntN(len(body))
		check(fmt.Sprintf("truncated round %d cut=%d", round, cut), body[:cut], hugeN, hugeM)

		// Trailing garbage after a complete batch must agree too.
		check(fmt.Sprintf("trailing round %d", round), append(body, 0x01), hugeN, hugeM)
	}

	// Out-of-range edges under a small shape: rejection must be identical
	// whether the offending value decodes in the fast path or the tail.
	for round := 0; round < 100; round++ {
		n, m := 1+rng.IntN(300), 1+rng.IntN(4000)
		k := 1 + rng.IntN(32)
		vals := make([]uint64, 0, 2*k)
		for i := 0; i < k; i++ {
			vals = append(vals, rng.Uint64()%(uint64(m)*2), rng.Uint64()%(uint64(n)*2))
		}
		body := encodeBody(uint64(k), vals)
		check(fmt.Sprintf("range round %d n=%d m=%d", round, n, m), body, n, m)
	}

	// Boundary batches: a full MaxBatch body (tail loop reached exactly at
	// the window guard), a single edge, and the malformed empty/oversized
	// counts.
	full := make([]uint64, 2*MaxBatch)
	for i := range full {
		full[i] = varintValueOfWidth(rng, 1+i%2)
	}
	check("max batch", encodeBody(MaxBatch, full), hugeN, hugeM)
	check("single edge", encodeBody(1, []uint64{5, 7}), hugeN, hugeM)
	check("zero count", encodeBody(0, nil), hugeN, hugeM)
	check("oversized count", encodeBody(MaxBatch+1, nil), hugeN, hugeM)
	check("empty body", nil, hugeN, hugeM)
	// A maximal varint with its 10th byte's high bit set overflows: both
	// decoders must reject it the same way wherever it lands.
	overflow := encodeBody(2, []uint64{1})
	overflow = append(overflow, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	check("overflow varint", overflow, hugeN, hugeM)
}

// writeEdgesReference is the edges payload writeEdges must seal: the frame
// type, the count, then each field appended with binary.AppendUvarint.
func writeEdgesReference(edges []stream.Edge) []byte {
	b := binary.AppendUvarint([]byte{frameEdges}, uint64(len(edges)))
	for _, e := range edges {
		b = binary.AppendUvarint(b, uint64(e.Set))
		b = binary.AppendUvarint(b, uint64(e.Elem))
	}
	return b
}

// TestWriteEdgesMatchesReference pins writeEdges to writeEdgesReference
// over every varint width an int32 ID can produce: 1–5 bytes for
// non-negative IDs, and 10 for negative ones, which sign-extend. Each
// batch is written behind a frame already queued in the same coalescing
// frame.IO, as a client's back-to-back batches are, so the buffer grows
// from a non-empty start. Every batch then goes back through
// parseEdgesInto: one without negative IDs must decode to itself, and one
// with a negative ID must be rejected, since no session shape holds it.
func TestWriteEdgesMatchesReference(t *testing.T) {
	rng := xrand.New(20261017)
	// id draws an ID whose uvarint is w bytes (w in 1..5, or 10).
	id := func(w int) int32 {
		if w == 10 {
			return int32(-1 - rng.IntN(math.MaxInt32))
		}
		v := varintValueOfWidth(rng, w)
		for v > math.MaxInt32 { // only [2^28, 2^31) of the 5-byte range is an int32
			v = varintValueOfWidth(rng, w)
		}
		return int32(v)
	}
	widths := []int{1, 2, 3, 4, 5, 10}
	queued := []stream.Edge{{Set: 1, Elem: 2}, {Set: 300, Elem: 4}}
	dst := make([]stream.Edge, MaxBatch)
	for _, size := range []int{1, 1024, MaxBatch} {
		for round := 0; round < 8; round++ {
			// Even rounds draw non-negative IDs only.
			ws := widths[:5+round%2]
			edges := make([]stream.Edge, size)
			negative := false
			for i := range edges {
				edges[i] = stream.Edge{Set: id(ws[rng.IntN(len(ws))]), Elem: id(ws[rng.IntN(len(ws))])}
				negative = negative || edges[i].Set < 0 || edges[i].Elem < 0
			}
			tag := fmt.Sprintf("size %d round %d", size, round)

			var wire bytes.Buffer
			f := clientFrames.Get(&wire)
			if err := writeEdges(f, queued); err != nil {
				t.Fatal(err)
			}
			if err := writeEdges(f, edges); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
			clientFrames.Put(f)

			var want bytes.Buffer
			ref := newFrameIO(&want)
			for _, batch := range [][]stream.Edge{queued, edges} {
				if err := ref.End(append(ref.Begin(), writeEdgesReference(batch)...)); err != nil {
					t.Fatal(err)
				}
			}
			if got := wire.Bytes(); !bytes.Equal(got, want.Bytes()) {
				at := 0
				for at < min(len(got), want.Len()) && got[at] == want.Bytes()[at] {
					at++
				}
				t.Fatalf("%s: writeEdges' %d bytes differ from the reference's %d at byte %d", tag, len(got), want.Len(), at)
			}

			r := newFrameIO(&wire)
			if _, err := r.Read(); err != nil { // the queued frame
				t.Fatal(err)
			}
			payload, err := r.Read()
			if err != nil {
				t.Fatalf("%s: read back: %v", tag, err)
			}
			k, err := parseEdgesInto(payload[1:], dst, math.MaxInt64, math.MaxInt64)
			if negative {
				if !errors.Is(err, ErrWire) {
					t.Fatalf("%s: batch with a negative ID parsed: k=%d err=%v", tag, k, err)
				}
				continue
			}
			if err != nil || k != size {
				t.Fatalf("%s: round trip: k=%d err=%v, want %d edges", tag, k, err, size)
			}
			for i, e := range edges {
				if dst[i] != e {
					t.Fatalf("%s: edge %d decoded as %+v, want %+v", tag, i, dst[i], e)
				}
			}
		}
	}
}
