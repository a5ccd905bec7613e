package serve

// FuzzWireFrame feeds arbitrary bytes through the SCWIRE1 frame reader and
// every body parser. The contract is the one connection handling depends
// on: malformed traffic surfaces a typed error (ErrWire, or the ErrRemote
// family for error frames) — never a panic, never an untyped failure — and
// anything a parser accepts survives a re-encode/re-parse round trip with
// the same meaning. Edges frames are held to more: the codec must agree
// with its per-edge references (parseEdgesReference, writeEdgesReference).
// Seeds include the retired v1 handshake forms (a hello without a trace
// field, a two-field ack), which must now fail typed.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"streamcover/internal/frame"
	"streamcover/internal/obs"
	"streamcover/internal/stream"
)

// fuzzFrame encodes one frame to raw bytes via the production writer.
func fuzzFrame(f *testing.F, write func(fio *frame.IO) error) []byte {
	f.Helper()
	var buf bytes.Buffer
	fio := newFrameIO(&buf)
	if err := write(fio); err != nil {
		f.Fatalf("seed frame: %v", err)
	}
	return buf.Bytes()
}

// wireTyped reports whether err is one a wire consumer is allowed to see
// for bad bytes: the ErrWire family, the remote-error family, or a plain
// short read from the framing layer.
func wireTyped(err error) bool {
	return errors.Is(err, ErrWire) || errors.Is(err, ErrRemote) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func FuzzWireFrame(f *testing.F) {
	cfg := Config{Algo: "kk", N: 30, M: 40, StreamLen: 120, Seed: 7, Copies: 2, Alpha: 1.5}
	trace := obs.TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

	seeds := [][]byte{
		fuzzFrame(f, func(fio *frame.IO) error { return writeV1Hello(fio, "old", cfg) }),
		fuzzFrame(f, func(fio *frame.IO) error { return writeHello(fio, frameHello, "new", trace, cfg) }),
		fuzzFrame(f, func(fio *frame.IO) error { return writeHello(fio, frameResume, "res", trace, cfg) }),
		fuzzFrame(f, func(fio *frame.IO) error { // the v1 two-field ack
			return fio.End(frame.AppendUvarint(frame.AppendString(append(fio.Begin(), frameHelloAck), "tok"), 99))
		}),
		fuzzFrame(f, func(fio *frame.IO) error { return writeHelloAck(fio, "tok", 99, trace) }),
		fuzzFrame(f, func(fio *frame.IO) error {
			return writeEdges(fio, []stream.Edge{{Set: 39, Elem: 29}, {Set: 0, Elem: 0}})
		}),
		fuzzFrame(f, func(fio *frame.IO) error { return writePosAck(fio, 4096) }),
		fuzzFrame(f, writeFlush),
		fuzzFrame(f, func(fio *frame.IO) error { return writeError(fio, codeMismatch, "boom") }),
	}
	for _, s := range seeds {
		f.Add(s)
		mutated := append([]byte(nil), s...)
		mutated[len(mutated)/2] ^= 0x10
		f.Add(mutated)
		f.Add(s[:len(s)-3]) // truncated trailer
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, frameHello, 0, 0, 0, 0})

	// Coalesced-read seeds: several frames back to back in one input, the
	// shape the windowed reader drains from one buffered refill. The big
	// one crosses the initial read window so refill's compact-and-grow
	// path starts seeded too.
	f.Add(bytes.Join([][]byte{seeds[0], seeds[5], seeds[6], seeds[7]}, nil))
	wide := fuzzFrame(f, func(fio *frame.IO) error {
		batch := make([]stream.Edge, 600)
		for i := range batch {
			batch[i] = stream.Edge{Set: 39, Elem: 29} // 1-byte varints
		}
		return writeEdges(fio, batch)
	})
	f.Add(bytes.Join([][]byte{wide, wide, wide, wide, wide, wide, wide, wide}, nil))
	// Batch-decoder seeds: two-byte varints (the unrolled fast path's
	// second case) and a hand-built body with maximal-width varints that
	// exercise the binary.Uvarint fallback and the guarded tail loop.
	f.Add(fuzzFrame(f, func(fio *frame.IO) error {
		return writeEdges(fio, []stream.Edge{{Set: 200, Elem: 150}, {Set: 12345, Elem: 4000}})
	}))
	// Set and element varints of 1, 2 and 3 bytes beside negative IDs,
	// whose 10-byte varints no session shape accepts.
	f.Add(fuzzFrame(f, func(fio *frame.IO) error {
		return writeEdges(fio, []stream.Edge{{Set: 5, Elem: 200}, {Set: 20000, Elem: -3}, {Set: -1, Elem: 7}, {Set: 130, Elem: 16384}})
	}))
	maxVarints := []byte{4, 0, 0, 0, frameEdges, 2} // len, type, k=2
	for i := 0; i < 4; i++ {
		maxVarints = append(maxVarints, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
	}
	f.Add(maxVarints)

	// Edge buffers for checkEdgesFrame, allocated once: inputs run one at
	// a time in a fuzzing process, and two MaxBatch buffers per edges
	// frame would dominate the cost of a multi-frame input.
	dst, ref := make([]stream.Edge, MaxBatch), make([]stream.Edge, MaxBatch)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Drain every frame in the input through one frame.IO: multi-frame
		// inputs walk the read window across refills exactly like a
		// coalesced connection drain.
		fio := newFrameIO(bytes.NewBuffer(data))
		for {
			payload, err := fio.Read()
			if err != nil {
				if !wireTyped(err) {
					t.Fatalf("untyped framing error: %v", err)
				}
				return
			}
			checkFramePayload(t, payload, dst, ref)
		}
	})
}

// checkFramePayload validates one accepted frame the way the fuzz target
// always has: parsers may reject with typed errors only, and anything
// accepted must survive a re-encode round trip unchanged.
func checkFramePayload(t *testing.T, payload []byte, dst, ref []stream.Edge) {
	t.Helper()
	switch payload[0] {
	case frameHello, frameResume:
		token, tr, got, err := parseHello(payload[1:])
		if err != nil {
			if !wireTyped(err) {
				t.Fatalf("untyped hello error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		re := newFrameIO(&buf)
		if err := writeHello(re, payload[0], token, tr, got); err != nil {
			t.Fatalf("re-encode of accepted hello failed: %v", err)
		}
		rp, err := re.Read()
		if err != nil {
			t.Fatal(err)
		}
		token2, tr2, got2, err := parseHello(rp[1:])
		if err != nil || token2 != token || tr2 != tr || got2 != got {
			t.Fatalf("hello round trip drifted: %q/%v/%+v -> %q/%v/%+v (%v)",
				token, tr, got, token2, tr2, got2, err)
		}
	case frameHelloAck:
		token, pos, tr, err := parseHelloAck(payload[1:], "")
		if err != nil {
			if !wireTyped(err) {
				t.Fatalf("untyped helloAck error: %v", err)
			}
			return
		}
		if pos < 0 {
			t.Fatalf("accepted negative ack position %d", pos)
		}
		var buf bytes.Buffer
		re := newFrameIO(&buf)
		if err := writeHelloAck(re, token, pos, tr); err != nil {
			t.Fatal(err)
		}
		rp, err := re.Read()
		if err != nil {
			t.Fatal(err)
		}
		token2, pos2, tr2, err := parseHelloAck(rp[1:], "")
		if err != nil || token2 != token || pos2 != pos || tr2 != tr {
			t.Fatalf("helloAck round trip drifted: %q/%d/%v -> %q/%d/%v (%v)",
				token, pos, tr, token2, pos2, tr2, err)
		}
	case frameEdges:
		checkEdgesFrame(t, payload[1:], dst, ref)
	case framePosAck:
		if _, err := parsePosAck(payload[1:]); err != nil && !wireTyped(err) {
			t.Fatalf("untyped posAck error: %v", err)
		}
	case frameResult:
		if _, err := parseResult(payload[1:]); err != nil && !wireTyped(err) {
			t.Fatalf("untyped result error: %v", err)
		}
	case frameError:
		// parseError always returns an error — the remote family for
		// well-formed frames, ErrWire for mangled ones.
		if err := parseError(payload[1:]); !wireTyped(err) {
			t.Fatalf("untyped error-frame result: %v", err)
		}
	case frameFlush, frameFinish, frameDetach:
		c := frame.NewCursor(payload[1:])
		if err := c.Done(); err != nil && !wireTyped(err) {
			t.Fatalf("untyped control-frame error: %v", err)
		}
	}
}

// checkEdgesFrame holds the edges codec to its references. parseEdgesInto
// must agree with parseEdgesReference on acceptance, error, count and
// edges, under the fuzz session's shape (n=30, m=40) and under the widest
// one. A batch accepted under the fuzz shape must re-encode through
// writeEdges to writeEdgesReference's bytes and parse back to itself. dst
// and ref are scratch buffers of MaxBatch edges, the server's bound.
func checkEdgesFrame(t *testing.T, body []byte, dst, ref []stream.Edge) {
	t.Helper()
	// The fuzz shape goes last, so dst holds its decode after the loop.
	var k int
	var err error
	for _, shape := range [][2]int{{math.MaxInt64, math.MaxInt64}, {30, 40}} {
		n, m := shape[0], shape[1]
		k, err = parseEdgesInto(body, dst, n, m)
		rk, rerr := parseEdgesReference(body, ref, n, m)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("n=%d m=%d: parseEdgesInto err %v, reference err %v", n, m, err, rerr)
		}
		if err != nil && !wireTyped(err) {
			t.Fatalf("untyped edges error: %v", err)
		}
		if err == nil && (k != rk || !slices.Equal(dst[:k], ref[:rk])) {
			t.Fatalf("n=%d m=%d: parseEdgesInto decoded %d edges, reference %d, or their edges differ", n, m, k, rk)
		}
	}
	if err != nil {
		return
	}
	edges := dst[:k]
	var buf bytes.Buffer
	fio := newFrameIO(&buf)
	if err := writeEdges(fio, edges); err != nil {
		t.Fatalf("re-encode of accepted edges failed: %v", err)
	}
	rp, err := fio.Read()
	if err != nil {
		t.Fatal(err)
	}
	if want := writeEdgesReference(edges); !bytes.Equal(rp, want) {
		t.Fatalf("writeEdges payload %x, reference %x", rp, want)
	}
	k2, err := parseEdgesInto(rp[1:], ref, 30, 40)
	if err != nil || !slices.Equal(ref[:k2], edges) {
		t.Fatalf("edges round trip drifted: %d edges -> %d (%v)", k, k2, err)
	}
}
