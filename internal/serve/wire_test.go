package serve

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"streamcover/internal/frame"
	"streamcover/internal/obs"
	"streamcover/internal/serve/store"
	"streamcover/internal/setcover"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// newFrameIO returns a non-coalescing SCWIRE1 frame.IO over rw.
func newFrameIO(rw io.ReadWriter) *frame.IO {
	return frame.New(rw, clientReadWindow, maxFramePayload)
}

// roundTrip writes one frame through a frame.IO and reads it back, checking
// the declared type.
func roundTrip(t *testing.T, write func(f *frame.IO) error, wantType byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	f := newFrameIO(&buf)
	if err := write(f); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	payload, err := f.Read()
	if err != nil {
		t.Fatalf("read frame back: %v", err)
	}
	if payload[0] != wantType {
		t.Fatalf("frame type %#02x, want %#02x", payload[0], wantType)
	}
	return payload[1:]
}

func TestWireHelloRoundTrip(t *testing.T) {
	want := Config{Algo: "alg2", N: 300, M: 4000, StreamLen: 60150, Seed: 42, Copies: 8, Alpha: 37.5}
	wantTrace := obs.NewTraceID()
	body := roundTrip(t, func(f *frame.IO) error {
		return writeHello(f, frameHello, "sess-1", wantTrace, want)
	}, frameHello)
	token, trace, got, err := parseHello(body)
	if err != nil {
		t.Fatalf("parseHello: %v", err)
	}
	if token != "sess-1" || got != want || trace != wantTrace {
		t.Fatalf("got token %q trace %v cfg %+v, want %q %v %+v", token, trace, got, "sess-1", wantTrace, want)
	}

	ack := roundTrip(t, func(f *frame.IO) error { return writeHelloAck(f, "tok", 500, wantTrace) }, frameHelloAck)
	if token, pos, trace, err := parseHelloAck(ack, ""); err != nil || token != "tok" || pos != 500 || trace != wantTrace {
		t.Fatalf("ack parsed as %q/%d/%v (%v), want tok/500/%v", token, pos, trace, err, wantTrace)
	}

	// Only the v2 handshake parses: a v1 hello (no trace field), an unknown
	// version and a hello truncated inside its trace field fail typed, and
	// so does an ack without its trace.
	for name, write := range map[string]func(f *frame.IO) error{
		"v1-hello": func(f *frame.IO) error { return writeV1Hello(f, "old", want) },
		"v3-hello": func(f *frame.IO) error {
			return f.End(frame.AppendString(frame.AppendUvarint(append(f.Begin(), frameHello), protoV2+1), "x"))
		},
		"truncated-trace": func(f *frame.IO) error {
			b := frame.AppendString(frame.AppendUvarint(append(f.Begin(), frameHello), protoV2), "x")
			return f.End(append(b, 0xAB, 0xCD)) // 2 of the 16 trace bytes
		},
	} {
		if _, _, _, err := parseHello(roundTrip(t, write, frameHello)); !errors.Is(err, ErrWire) {
			t.Fatalf("%s accepted: %v", name, err)
		}
	}
	short := roundTrip(t, func(f *frame.IO) error {
		return f.End(frame.AppendUvarint(frame.AppendString(append(f.Begin(), frameHelloAck), "tok"), 500))
	}, frameHelloAck)
	if _, _, _, err := parseHelloAck(short, ""); !errors.Is(err, ErrWire) {
		t.Fatalf("ack without a trace accepted: %v", err)
	}
}

// writeV1Hello sends a hello in the retired version-1 handshake, exactly as
// pre-trace clients did: no trace field after the token.
func writeV1Hello(f *frame.IO, token string, cfg Config) error {
	b := frame.AppendUvarint(append(f.Begin(), frameHello), 1)
	b = frame.AppendString(b, token)
	b = frame.AppendString(b, cfg.Algo)
	for _, v := range []uint64{uint64(cfg.N), uint64(cfg.M), uint64(cfg.StreamLen), cfg.Seed, uint64(cfg.Copies)} {
		b = frame.AppendUvarint(b, v)
	}
	return f.End(frame.AppendF64(b, cfg.Alpha))
}

func TestWireEdgesRoundTrip(t *testing.T) {
	edges := []stream.Edge{{Set: 0, Elem: 0}, {Set: 3999, Elem: 299}, {Set: 17, Elem: 80}}
	body := roundTrip(t, func(f *frame.IO) error { return writeEdges(f, edges) }, frameEdges)
	dst := make([]stream.Edge, MaxBatch)
	n, err := parseEdgesInto(body, dst, 300, 4000)
	if err != nil {
		t.Fatalf("parseEdgesInto: %v", err)
	}
	if n != len(edges) {
		t.Fatalf("decoded %d edges, want %d", n, len(edges))
	}
	for i := range edges {
		if dst[i] != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, dst[i], edges[i])
		}
	}
}

func TestWireEdgesRejectsOutOfShape(t *testing.T) {
	body := roundTrip(t, func(f *frame.IO) error {
		return writeEdges(f, []stream.Edge{{Set: 40, Elem: 5}})
	}, frameEdges)
	dst := make([]stream.Edge, MaxBatch)
	// The edge is legal for the sender's shape but not the session's.
	if _, err := parseEdgesInto(body, dst, 300, 40); !errors.Is(err, ErrWire) {
		t.Fatalf("out-of-shape edge: got %v, want ErrWire", err)
	}
	if _, err := parseEdgesInto(body, dst, 5, 4000); !errors.Is(err, ErrWire) {
		t.Fatalf("out-of-universe edge: got %v, want ErrWire", err)
	}
}

func TestWireEdgesRejectsOversizedBatch(t *testing.T) {
	f := newFrameIO(nil)
	if err := writeEdges(f, make([]stream.Edge, MaxBatch+1)); !errors.Is(err, ErrWire) {
		t.Fatalf("oversized batch: got %v, want ErrWire", err)
	}
	if err := writeEdges(f, nil); !errors.Is(err, ErrWire) {
		t.Fatalf("empty batch: got %v, want ErrWire", err)
	}
}

func TestWireResultRoundTrip(t *testing.T) {
	want := Result{
		Edges: 60150,
		Cover: &setcover.Cover{
			Sets: []setcover.SetID{4, 17, 255},
			// NoSet must survive the trip: certificates carry -1 for
			// elements without a witness.
			Certificate: []setcover.SetID{4, setcover.NoSet, 17, 255},
		},
		Space: space.Usage{State: 4000, Aux: 900},
	}
	body := roundTrip(t, func(f *frame.IO) error { return writeResult(f, want) }, frameResult)
	got, err := parseResult(body)
	if err != nil {
		t.Fatalf("parseResult: %v", err)
	}
	if got.Edges != want.Edges || got.Space != want.Space || !got.Cover.Equal(want.Cover) {
		t.Fatalf("result round trip: got %+v, want %+v", got, want)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint changed across the wire")
	}
}

func TestWireErrorFramesAreTyped(t *testing.T) {
	cases := []struct {
		code byte
		want error
	}{
		{codeGeneric, ErrRemote},
		{codeMismatch, ErrRemoteMismatch},
		{codeShutdown, ErrDraining},
		{codeBadFrame, ErrRemote},
	}
	for _, tc := range cases {
		body := roundTrip(t, func(f *frame.IO) error {
			return writeError(f, tc.code, "boom")
		}, frameError)
		err := parseError(body)
		if !errors.Is(err, tc.want) {
			t.Fatalf("code %d: got %v, want %v", tc.code, err, tc.want)
		}
		// Every typed error is still an ErrRemote.
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("code %d: %v does not wrap ErrRemote", tc.code, err)
		}
	}
}

// TestWireFrameCorruption flips, truncates and oversizes raw frames; every
// damage mode must surface ErrWire, never a panic or a silent success.
func TestWireFrameCorruption(t *testing.T) {
	encode := func() []byte {
		var buf bytes.Buffer
		f := newFrameIO(&buf)
		if err := writeHello(f, frameHello, "tok", obs.NewTraceID(), Config{Algo: "kk", N: 3, M: 5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := encode()

	t.Run("bit-flips", func(t *testing.T) {
		// CRC-32 catches every single-bit flip, and a flipped length prefix
		// turns into a short read or a checksum over the wrong span — so
		// every position must fail, without panicking.
		for i := range base {
			raw := append([]byte(nil), base...)
			raw[i] ^= 0x40
			f := newFrameIO(bytes.NewBuffer(raw))
			if _, err := f.Read(); err == nil {
				t.Fatalf("flip at byte %d accepted silently", i)
			}
		}
	})

	t.Run("truncation", func(t *testing.T) {
		for cut := 1; cut < len(base); cut++ {
			f := newFrameIO(bytes.NewBuffer(base[:cut]))
			if _, err := f.Read(); err == nil {
				t.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
	})

	t.Run("oversized-length", func(t *testing.T) {
		raw := append([]byte(nil), base...)
		raw[0], raw[1], raw[2], raw[3] = 0xff, 0xff, 0xff, 0xff
		f := newFrameIO(bytes.NewBuffer(raw))
		if _, err := f.Read(); !errors.Is(err, ErrWire) {
			t.Fatalf("oversized length: got %v, want ErrWire", err)
		}
	})

	t.Run("zero-length", func(t *testing.T) {
		f := newFrameIO(bytes.NewBuffer([]byte{0, 0, 0, 0}))
		if _, err := f.Read(); !errors.Is(err, ErrWire) {
			t.Fatalf("zero length: got %v, want ErrWire", err)
		}
	})
}

func TestWireTrailingBytesRejected(t *testing.T) {
	var buf bytes.Buffer
	f := newFrameIO(&buf)
	if err := f.End(append(f.Begin(), frameFlush, 0xAA)); err != nil { // stray byte after a body-less frame
		t.Fatal(err)
	}
	payload, err := f.Read()
	if err != nil {
		t.Fatal(err)
	}
	c := frame.NewCursor(payload[1:])
	if err := c.Done(); !errors.Is(err, ErrWire) {
		t.Fatalf("trailing bytes: got %v, want ErrWire", err)
	}
}

// TestValidToken pins the token alphabet at the transport boundary; the
// rule itself lives in the store layer (store.ValidToken), where it guards
// every Put/Get/Delete.
func TestValidToken(t *testing.T) {
	good := []string{"a", "s000001", "T-1_x.9", "restart"}
	bad := []string{"", ".hidden", "../escape", "a/b", "a b", "tok\x00", string(make([]byte, 65))}
	for _, tok := range good {
		if !store.ValidToken(tok) {
			t.Errorf("ValidToken(%q) = false, want true", tok)
		}
	}
	for _, tok := range bad {
		if store.ValidToken(tok) {
			t.Errorf("ValidToken(%q) = true, want false", tok)
		}
	}
}
