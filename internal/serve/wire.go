package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"streamcover/internal/frame"
	"streamcover/internal/obs"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/setcover"
	"streamcover/internal/stream"
)

// Magic opens every SCWIRE1 connection (client→server, once, before the
// first frame).
const Magic = "SCWIRE1\n"

// protoV2 is the handshake version carried in hello/resume frames: the
// token is followed by a 16-byte session trace ID (hello/resume) and the
// position by the session's trace (helloAck), so one identity follows a
// session across disconnect, resume and checkpoint files. Any other
// version is a wire error.
const protoV2 = 2

// Frame types. Client→server types are low, server→client types have the
// high bit set; values are part of the wire format and must stay stable.
const (
	frameHello  = 0x01 // open a new session
	frameEdges  = 0x02 // one edge batch
	frameFlush  = 0x03 // request a pos-ack once the queue has drained
	frameFinish = 0x04 // finish the algorithm, expect a result frame
	frameResume = 0x05 // reattach to a detached session
	frameDetach = 0x06 // graceful disconnect: checkpoint and ack first

	frameHelloAck = 0x81 // session token + starting position
	framePosAck   = 0x82 // flush/detach acknowledgement
	frameResult   = 0x83 // edges, cover, certificate, space meters
	frameError    = 0x84 // code byte + message
)

// Wire error codes carried by error frames, so clients can map remote
// failures back to typed errors.
const (
	codeGeneric  = 1 // anything without a more specific classification
	codeMismatch = 2 // checkpoint/algorithm/shape mismatch on resume
	codeBadFrame = 3 // malformed or out-of-protocol frame
	codeShutdown = 4 // server is draining and rejects new work
)

// maxFramePayload bounds every SCWIRE1 frame payload, so a corrupt length
// prefix cannot provoke a pathological allocation. Generous enough for a
// MaxBatch edge frame of worst-case varints and for result frames of
// laptop-scale universes. An edges frame is additionally bounded by
// MaxBatch (defined by the lifecycle layer, whose ring buffers are sized to
// it once at session creation and re-exported in serve.go).
const maxFramePayload = 1 << 22

// Read windows. One syscall surfaces several queued frames (a MaxBatch edge
// frame of planted-workload varints is a few KiB, so the server window
// drains ~a dozen frames per read). Sizes are validated by
// BenchmarkServeSessionsScaling — see DESIGN.md §4j.
const (
	clientReadWindow = 4 << 10  // acks are tiny; results are read once
	serverReadWindow = 64 << 10 // the ingest path: many edge frames per drain
)

// ErrWire is the family error for malformed SCWIRE1 traffic: bad magic, bad
// CRC, truncated or oversized frames, unknown frame types. It is the shared
// frame.ErrWire, so SCSTOR1 corruption (store.ErrStoreWire) matches it too.
var ErrWire = frame.ErrWire

// ErrRemote wraps a failure the server reported in an error frame.
var ErrRemote = errors.New("serve: remote error")

// ErrRemoteMismatch is the typed form of a code-mismatch error frame: the
// resume named a checkpoint written by a different algorithm or instance
// shape. It wraps ErrRemote.
var ErrRemoteMismatch = fmt.Errorf("%w: checkpoint mismatch", ErrRemote)

// ErrDraining is the typed form of a code-shutdown error frame: the server
// is shutting down and refused the session. It wraps both ErrRemote (for
// clients matching the remote-error family) and lifecycle.ErrDraining (the
// sentinel the session layer returns server-side), so errors.Is works on
// either side of the wire.
var ErrDraining = fmt.Errorf("%w: %w", ErrRemote, lifecycle.ErrDraining)

// SCWIRE1 frame buffers, pooled across connections (internal/frame).
var (
	serverFrames = frame.NewPool(serverReadWindow, maxFramePayload)
	clientFrames = frame.NewPool(clientReadWindow, maxFramePayload)
)

// writeHello sends a hello (or resume, per typ) frame carrying the session
// token, the client's trace ID and the full session configuration.
func writeHello(f *frame.IO, typ byte, token string, trace obs.TraceID, cfg Config) error {
	b := frame.AppendUvarint(append(f.Begin(), typ), protoV2)
	b = frame.AppendString(b, token)
	b = append(b, trace[:]...)
	b = frame.AppendString(b, cfg.Algo)
	b = frame.AppendUvarint(b, uint64(cfg.N))
	b = frame.AppendUvarint(b, uint64(cfg.M))
	b = frame.AppendUvarint(b, uint64(cfg.StreamLen))
	b = frame.AppendUvarint(b, cfg.Seed)
	b = frame.AppendUvarint(b, uint64(cfg.Copies))
	b = frame.AppendF64(b, cfg.Alpha)
	return f.End(b)
}

// parseHello decodes a hello/resume body (the type byte already stripped).
func parseHello(body []byte) (token string, trace obs.TraceID, cfg Config, err error) {
	c := frame.NewCursor(body)
	if v := c.U64(); v != protoV2 {
		return "", trace, Config{}, fmt.Errorf("%w: protocol version %d", ErrWire, v)
	}
	token = c.Str()
	copy(trace[:], c.Raw(obs.TraceIDLen))
	cfg.Algo = c.Str()
	cfg.N = int(c.U64())
	cfg.M = int(c.U64())
	cfg.StreamLen = int(c.U64())
	cfg.Seed = c.U64()
	cfg.Copies = int(c.U64())
	cfg.Alpha = c.F64()
	return token, trace, cfg, c.Done()
}

// parseOpening decodes the frame every connection must open with: a hello
// (resume false) or a resume.
func parseOpening(payload []byte) (resume bool, token string, trace obs.TraceID, cfg Config, err error) {
	switch payload[0] {
	case frameHello, frameResume:
		token, trace, cfg, err = parseHello(payload[1:])
		return payload[0] == frameResume, token, trace, cfg, err
	}
	return false, "", trace, cfg, fmt.Errorf("%w: connection must open with hello or resume, got frame 0x%02x", ErrWire, payload[0])
}

// writeEdges sends one edge batch using the SCSTRM1 varint edge encoding
// (uvarint set, uvarint elem per edge), encoded in one bulk append pass.
func writeEdges(f *frame.IO, edges []stream.Edge) error {
	if len(edges) == 0 || len(edges) > MaxBatch {
		return fmt.Errorf("%w: edge batch of %d (limit %d)", ErrWire, len(edges), MaxBatch)
	}
	b := frame.AppendUvarint(append(f.Begin(), frameEdges), uint64(len(edges)))
	for _, e := range edges {
		b = frame.AppendUvarint(b, uint64(e.Set))
		b = frame.AppendUvarint(b, uint64(e.Elem))
	}
	return f.End(b)
}

// parseEdgesInto decodes an edges body into dst, validating the count
// against the ring buffer capacity and every edge against the session
// shape. It returns the number of edges decoded.
//
// The hot loop is a windowed batch decoder in the same shape as
// stream.File's FillBatch: while a worst-case edge (two maximal varints)
// provably fits in the remaining bytes, an unrolled 1–2-byte fast path
// decodes without per-byte bounds checks; the last few edges fall back to
// the generic decoder against the exact window edge. Semantics are pinned
// to the per-edge binary.Uvarint reference by TestParseEdgesMatchesReference.
func parseEdgesInto(body []byte, dst []stream.Edge, n, m int) (int, error) {
	k, sz := binary.Uvarint(body)
	if sz <= 0 {
		return 0, fmt.Errorf("%w: truncated varint", ErrWire)
	}
	if k == 0 || k > uint64(len(dst)) {
		return 0, fmt.Errorf("%w: edge batch of %d (limit %d)", ErrWire, k, len(dst))
	}
	b := body[sz:]
	um, un := uint64(m), uint64(n)
	pos, i := 0, 0
	for fastEnd := len(b) - 2*binary.MaxVarintLen64; i < int(k) && pos <= fastEnd; i++ {
		var s, u uint64
		if c0 := b[pos]; c0 < 0x80 {
			s, pos = uint64(c0), pos+1
		} else if c1 := b[pos+1]; c1 < 0x80 {
			s, pos = uint64(c0&0x7f)|uint64(c1)<<7, pos+2
		} else {
			v, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				return 0, fmt.Errorf("%w: truncated varint", ErrWire)
			}
			s, pos = v, pos+w
		}
		if c0 := b[pos]; c0 < 0x80 {
			u, pos = uint64(c0), pos+1
		} else if c1 := b[pos+1]; c1 < 0x80 {
			u, pos = uint64(c0&0x7f)|uint64(c1)<<7, pos+2
		} else {
			v, w := binary.Uvarint(b[pos:])
			if w <= 0 {
				return 0, fmt.Errorf("%w: truncated varint", ErrWire)
			}
			u, pos = v, pos+w
		}
		if s >= um || u >= un {
			return 0, fmt.Errorf("%w: edge (%d,%d) out of range for n=%d m=%d", ErrWire, s, u, n, m)
		}
		dst[i] = stream.Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
	}
	for ; i < int(k); i++ {
		s, w := binary.Uvarint(b[pos:])
		if w <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrWire)
		}
		pos += w
		u, w2 := binary.Uvarint(b[pos:])
		if w2 <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrWire)
		}
		pos += w2
		if s >= um || u >= un {
			return 0, fmt.Errorf("%w: edge (%d,%d) out of range for n=%d m=%d", ErrWire, s, u, n, m)
		}
		dst[i] = stream.Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)}
	}
	if pos != len(b) {
		return 0, fmt.Errorf("%w: %d trailing bytes in frame", ErrWire, len(b)-pos)
	}
	return int(k), nil
}

// writeFlush, writeDetach and writeFinish send the body-less control
// frames.
func writeFlush(f *frame.IO) error  { return f.End(append(f.Begin(), frameFlush)) }
func writeDetach(f *frame.IO) error { return f.End(append(f.Begin(), frameDetach)) }
func writeFinish(f *frame.IO) error { return f.End(append(f.Begin(), frameFinish)) }

// writeHelloAck acknowledges a hello/resume with the session token, the
// stream position the client must (re)start from and the session's
// authoritative trace ID.
func writeHelloAck(f *frame.IO, token string, pos int, trace obs.TraceID) error {
	b := frame.AppendString(append(f.Begin(), frameHelloAck), token)
	b = frame.AppendUvarint(b, uint64(pos))
	return f.End(append(b, trace[:]...))
}

// parseHelloAck decodes an ack body. want is the token the client asked
// for ("" when the server mints one); an echo of it decodes without
// allocating.
func parseHelloAck(body []byte, want string) (token string, pos int, trace obs.TraceID, err error) {
	c := frame.NewCursor(body)
	token = c.StrEcho(want)
	pos = int(c.U64())
	copy(trace[:], c.Raw(obs.TraceIDLen))
	return token, pos, trace, c.Done()
}

// writePosAck acknowledges a flush/detach at the given consumed position.
func writePosAck(f *frame.IO, pos int) error {
	return f.End(frame.AppendUvarint(append(f.Begin(), framePosAck), uint64(pos)))
}

func parsePosAck(body []byte) (int, error) {
	c := frame.NewCursor(body)
	pos := int(c.U64())
	return pos, c.Done()
}

// writeResult sends a result frame carrying a lifecycle.Result. Certificate
// entries use signed varints so NoSet (-1) round-trips.
func writeResult(f *frame.IO, res Result) error {
	b := frame.AppendUvarint(append(f.Begin(), frameResult), uint64(res.Edges))
	for _, ids := range [][]setcover.SetID{res.Cover.Sets, res.Cover.Certificate} {
		b = frame.AppendUvarint(b, uint64(len(ids)))
		for _, s := range ids {
			b = binary.AppendVarint(b, int64(s))
		}
	}
	b = binary.AppendVarint(b, res.Space.State)
	return f.End(binary.AppendVarint(b, res.Space.Aux))
}

func parseResult(body []byte) (Result, error) {
	c := frame.NewCursor(body)
	var res Result
	res.Edges = int(c.U64())
	var ids [2][]setcover.SetID // cover sets, then certificate
	for i := range ids {
		ids[i] = make([]setcover.SetID, c.Count())
		for j := range ids[i] {
			ids[i][j] = setcover.SetID(c.I64())
		}
	}
	res.Cover = &setcover.Cover{Sets: ids[0], Certificate: ids[1]}
	res.Space.State = c.I64()
	res.Space.Aux = c.I64()
	return res, c.Done()
}

// writeError reports a failure to the peer.
func writeError(f *frame.IO, code byte, msg string) error {
	return f.End(frame.AppendString(append(f.Begin(), frameError, code), msg))
}

// parseError turns an error body into a typed Go error.
func parseError(body []byte) error {
	c := frame.NewCursor(body)
	code := c.Byte()
	msg := c.Str()
	if err := c.Done(); err != nil {
		return err
	}
	switch code {
	case codeMismatch:
		return fmt.Errorf("%w: %s", ErrRemoteMismatch, msg)
	case codeShutdown:
		return fmt.Errorf("%w: %s", ErrDraining, msg)
	default:
		return fmt.Errorf("%w: %s", ErrRemote, msg)
	}
}
