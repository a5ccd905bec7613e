package serve

import (
	"fmt"
	"net"
	"time"

	"streamcover/internal/frame"
	"streamcover/internal/obs"
	"streamcover/internal/stream"
)

// Client speaks SCWIRE1 over one connection. It is not safe for concurrent
// use; drive one client per goroutine. Methods that await a server reply
// surface error frames as typed errors (ErrRemote, ErrRemoteMismatch,
// ErrDraining).
type Client struct {
	conn net.Conn
	f    *frame.IO
	// Timeout bounds each blocking read or write; zero means no limit.
	Timeout time.Duration
	// Trace proposes a session trace ID at Hello (zero asks the server to
	// mint one). After Hello/Resume it holds the session's authoritative
	// identity: the server echoes the adopted trace in its ack — on resume,
	// the one stamped into the checkpoint at the original open — and the
	// field is updated in place.
	Trace obs.TraceID

	token string
	sent  int // edges handed to the transport, offset by the resume position

	armed time.Time // deadline last armed at (coarse re-arming)
}

var magicBytes = []byte(Magic)

// errRW is the connection stand-in a closed Client's frame.IO points at, so
// a stale handle errors like a closed connection instead of touching pooled
// buffers.
type errRW struct{}

func (errRW) Read([]byte) (int, error)  { return 0, net.ErrClosed }
func (errRW) Write([]byte) (int, error) { return 0, net.ErrClosed }

// Dial connects to a server and queues the protocol magic; it rides ahead
// of the first frame in one write. No session is open yet — follow with
// Hello or Resume. Writes coalesce: edge batches seal into a local buffer
// and ship as one write when it fills or a reply is awaited (a frame read
// flushes).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, f: clientFrames.Get(conn)}
	c.f.QueueRaw(magicBytes)
	return c, nil
}

// Close drops the connection without detaching. The server notices the
// disconnect and checkpoints the session, so a Close mid-stream is
// recoverable via Resume — it is exactly the "killed client" case. Queued
// unflushed frames are dropped, not delivered: a kill is a kill.
func (c *Client) Close() error {
	err := c.conn.Close()
	clientFrames.Put(c.f)
	c.f = frame.New(errRW{}, clientReadWindow, maxFramePayload)
	return err
}

// Token reports the session token assigned at Hello/Resume.
func (c *Client) Token() string { return c.token }

// Pos reports the next stream position the server expects from this
// client (edges acked as received plus the resume offset).
func (c *Client) Pos() int { return c.sent }

// deadlines arms both connection deadlines, coarsely: once armed, it only
// re-arms after a quarter of the budget (at most a second of wall clock)
// has elapsed, so the saturated send path stops paying two timer updates
// per frame. Every blocking op therefore still has at least 3/4 of Timeout
// in hand.
func (c *Client) deadlines() {
	if c.Timeout <= 0 {
		return
	}
	now := time.Now()
	rearm := c.Timeout / 4
	if rearm > time.Second {
		rearm = time.Second
	}
	if !c.armed.IsZero() && now.Sub(c.armed) < rearm {
		return
	}
	c.armed = now
	t := now.Add(c.Timeout)
	c.conn.SetReadDeadline(t)
	c.conn.SetWriteDeadline(t)
}

// expect reads one frame, decoding error frames into typed errors and
// rejecting any type other than want.
func (c *Client) expect(want byte) ([]byte, error) {
	c.deadlines()
	payload, err := c.f.Read()
	if err != nil {
		return nil, err
	}
	switch payload[0] {
	case want:
		return payload[1:], nil
	case frameError:
		return nil, parseError(payload[1:])
	default:
		return nil, fmt.Errorf("%w: expected frame 0x%02x, got 0x%02x", ErrWire, want, payload[0])
	}
}

// Hello opens a fresh session for cfg. An empty token lets the server
// assign one; the assigned token is returned (and kept for Resume).
func (c *Client) Hello(token string, cfg Config) (string, error) {
	c.deadlines()
	if err := writeHello(c.f, frameHello, token, c.Trace, cfg); err != nil {
		return "", err
	}
	body, err := c.expect(frameHelloAck)
	if err != nil {
		return "", err
	}
	tok, pos, trace, err := parseHelloAck(body, token)
	if err != nil {
		return "", err
	}
	c.token, c.sent, c.Trace = tok, pos, trace
	return tok, nil
}

// Resume reattaches to a detached session. The returned position is where
// the server's checkpoint left off: the client must resend the stream
// from that edge onward (earlier edges are already inside the restored
// state).
func (c *Client) Resume(token string, cfg Config) (int, error) {
	c.deadlines()
	if err := writeHello(c.f, frameResume, token, c.Trace, cfg); err != nil {
		return 0, err
	}
	body, err := c.expect(frameHelloAck)
	if err != nil {
		return 0, err
	}
	tok, pos, trace, err := parseHelloAck(body, token)
	if err != nil {
		return 0, err
	}
	c.token, c.sent, c.Trace = tok, pos, trace
	return pos, nil
}

// SendBatch queues one edge batch (at most MaxBatch edges). Batches
// coalesce locally and ship as one write once the buffer crosses its
// threshold or the next reply is awaited — call Sync to force delivery
// without waiting for an ack. It never waits for acknowledgement —
// backpressure arrives through TCP when the server's session ring is full.
func (c *Client) SendBatch(edges []stream.Edge) error {
	c.deadlines()
	if err := writeEdges(c.f, edges); err != nil {
		return err
	}
	c.sent += len(edges)
	return nil
}

// Sync forces every queued batch onto the wire without awaiting an ack.
// Methods that read a reply (Flush, Finish, Detach, Hello, Resume) sync
// implicitly.
func (c *Client) Sync() error {
	c.deadlines()
	return c.f.Flush()
}

// Flush blocks until the server has processed everything sent so far and
// returns the server's consumed position.
func (c *Client) Flush() (int, error) {
	c.deadlines()
	if err := writeFlush(c.f); err != nil {
		return 0, err
	}
	body, err := c.expect(framePosAck)
	if err != nil {
		return 0, err
	}
	return parsePosAck(body)
}

// Detach asks the server to checkpoint and park the session, returning
// the checkpointed position. The connection is done afterwards.
func (c *Client) Detach() (int, error) {
	c.deadlines()
	if err := writeDetach(c.f); err != nil {
		return 0, err
	}
	body, err := c.expect(framePosAck)
	if err != nil {
		return 0, err
	}
	return parsePosAck(body)
}

// Finish completes the session: the server finishes the algorithm and
// returns the cover, certificate and space report.
func (c *Client) Finish() (Result, error) {
	c.deadlines()
	if err := writeFinish(c.f); err != nil {
		return Result{}, err
	}
	body, err := c.expect(frameResult)
	if err != nil {
		return Result{}, err
	}
	return parseResult(body)
}

// Feeder drives a fixed edge stream through a session deterministically:
// same edges, same batch size, same frames — whether the run is
// uninterrupted or resumed mid-stream. It is the reference load generator
// used by scfeed and the serve tests.
type Feeder struct {
	// Edges is the full stream, in arrival order.
	Edges []stream.Edge
	// Batch is the edges-per-frame granularity (clamped to [1, MaxBatch];
	// 0 picks MaxBatch).
	Batch int
}

func (fd *Feeder) batch() int {
	b := fd.Batch
	if b <= 0 || b > MaxBatch {
		b = MaxBatch
	}
	return b
}

// Run feeds every edge from the client's current position and finishes,
// returning the session result. After a Resume, the already-consumed
// prefix is skipped automatically.
func (fd *Feeder) Run(c *Client) (Result, error) {
	if err := fd.sendRange(c, len(fd.Edges)); err != nil {
		return Result{}, err
	}
	return c.Finish()
}

// RunUntil feeds edges from the client's current position up to (not
// including) stream position stop, then returns without finishing. Tests
// and scfeed use it to simulate a client killed mid-stream.
func (fd *Feeder) RunUntil(c *Client, stop int) error {
	if stop > len(fd.Edges) {
		stop = len(fd.Edges)
	}
	return fd.sendRange(c, stop)
}

func (fd *Feeder) sendRange(c *Client, stop int) error {
	b := fd.batch()
	for pos := c.Pos(); pos < stop; pos = c.Pos() {
		end := pos + b
		if end > stop {
			end = stop
		}
		if err := c.SendBatch(fd.Edges[pos:end]); err != nil {
			return fmt.Errorf("serve: feeding edges [%d,%d): %w", pos, end, err)
		}
	}
	// Everything handed to the feeder is on the wire when it returns: a
	// caller that goes idle (or is killed) afterwards has still delivered
	// every batch, exactly as the uncoalesced client did.
	return c.Sync()
}
