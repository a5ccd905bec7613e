package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

const (
	testN, testM, testOpt = 120, 900, 6
	testSeed              = 42
)

// testEdges builds the shared deterministic workload stream.
func testEdges(t testing.TB) []stream.Edge {
	t.Helper()
	w := workload.Planted(xrand.New(11), testN, testM, testOpt, 0)
	return stream.Arrange(w.Inst, stream.Random, xrand.New(23))
}

func testConfig(edges []stream.Edge) Config {
	return Config{Algo: "kk", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed}
}

// testConfigs is one session shape per registered streaming algorithm plus
// a KK ensemble; the equivalence tests run every one.
func testConfigs(edges []stream.Edge) []Config {
	return []Config{
		{Algo: "kk", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed},
		{Algo: "alg1", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed},
		{Algo: "alg2", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed, Alpha: 22},
		{Algo: "es", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed, Alpha: 6},
		{Algo: "kk", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed, Copies: 3},
	}
}

// configName names a testConfigs entry for its subtest.
func configName(cfg Config) string {
	if cfg.Copies > 1 {
		return cfg.Algo + "-ensemble"
	}
	return cfg.Algo
}

// startServer runs a server on a loopback port, shut down at test end.
// Tests run dirless on a MemStore unless they ask for a specific backend.
func startServer(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Store == nil && cfg.Dir == "" {
		cfg.Store = NewMemStore()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv
}

func dialT(t testing.TB, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Timeout = 30 * time.Second
	return c
}

// waitIdle polls until the server has released every session.
func waitIdle(t testing.TB, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Manager().Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still attached", srv.Manager().Active())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeMatchesLocalRun pins the fundamental equivalence: a session fed
// over TCP produces byte-identical output to driving the same algorithm
// locally.
func TestServeMatchesLocalRun(t *testing.T) {
	edges := testEdges(t)
	for _, cfg := range testConfigs(edges) {
		t.Run(configName(cfg), func(t *testing.T) {
			alg, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			local := stream.RunEdges(alg, edges)

			srv := startServer(t, ServerConfig{})
			c := dialT(t, srv)
			if _, err := c.Hello("", cfg); err != nil {
				t.Fatal(err)
			}
			fd := Feeder{Edges: edges, Batch: 700}
			res, err := fd.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cover.Equal(local.Cover) {
				t.Fatalf("served cover (%d sets) differs from local (%d sets)",
					len(res.Cover.Sets), len(local.Cover.Sets))
			}
			if res.Edges != local.Edges || res.Space != local.Space {
				t.Fatalf("served edges/space %d/%+v, local %d/%+v",
					res.Edges, res.Space, local.Edges, local.Space)
			}
		})
	}
}

func TestServeFlushReportsProgress(t *testing.T) {
	edges := testEdges(t)
	srv := startServer(t, ServerConfig{})
	c := dialT(t, srv)
	if _, err := c.Hello("", testConfig(edges)); err != nil {
		t.Fatal(err)
	}
	fd := Feeder{Edges: edges, Batch: 512}
	const stop = 2048
	if err := fd.RunUntil(c, stop); err != nil {
		t.Fatal(err)
	}
	pos, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if pos != stop {
		t.Fatalf("flushed position %d, want %d", pos, stop)
	}
}

// TestServeDetachAndResume parks every session shape mid-stream and
// resumes it, once with a detach frame and once by dropping the connection
// with no detach frame (a crashed client). Either way the resumed session
// must finish byte-identical to an uninterrupted local run.
func TestServeDetachAndResume(t *testing.T) {
	edges := testEdges(t)
	srv := startServer(t, ServerConfig{})
	const stop = 3000
	for _, cfg := range testConfigs(edges) {
		for _, drop := range []bool{false, true} {
			token := configName(cfg) + "-detach-frame"
			if drop {
				token = configName(cfg) + "-dropped"
			}
			t.Run(token, func(t *testing.T) {
				ref := localReference(t, cfg, edges)
				c := dialT(t, srv)
				if _, err := c.Hello(token, cfg); err != nil {
					t.Fatal(err)
				}
				fd := Feeder{Edges: edges, Batch: 512}
				if err := fd.RunUntil(c, stop); err != nil {
					t.Fatal(err)
				}
				if !drop {
					pos, err := c.Detach()
					if err != nil {
						t.Fatal(err)
					}
					if pos != stop {
						t.Fatalf("detached at %d, want %d", pos, stop)
					}
				}
				c.Close()
				waitIdle(t, srv)

				c2 := dialT(t, srv)
				got, err := c2.Resume(token, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got <= 0 || got > stop || (!drop && got != stop) {
					t.Fatalf("resumed at %d, want %d (or within (0, %d] after a drop)", got, stop, stop)
				}
				res, err := fd.Run(c2)
				if err != nil {
					t.Fatal(err)
				}
				if res.Fingerprint() != ref.Fingerprint() {
					t.Fatalf("resumed fingerprint %#x, want uninterrupted %#x", res.Fingerprint(), ref.Fingerprint())
				}
			})
		}
	}
}

// TestServeTraceIdentity pins the session-identity contract of the v2
// handshake: a client-minted trace is adopted and echoed; the trace is
// stamped into the detach checkpoint and wins on resume, even when the
// resuming client proposes a different one; and a zero client trace makes
// the server mint a non-zero identity. The wide-event log must tell the
// whole story, including a dropped connection and the server's drain.
func TestServeTraceIdentity(t *testing.T) {
	edges := testEdges(t)
	cfg := testConfig(edges)
	hub := obs.NewHub(64)
	var events strings.Builder
	so := hub.Serve()
	so.SetEventWriter(&events)
	srv := startServer(t, ServerConfig{Obs: so})

	minted := obs.NewTraceID()
	c := dialT(t, srv)
	c.Trace = minted
	if _, err := c.Hello("traced", cfg); err != nil {
		t.Fatal(err)
	}
	if c.Trace != minted {
		t.Fatalf("server replaced the client-minted trace: %v -> %v", minted, c.Trace)
	}
	fd := Feeder{Edges: edges, Batch: 512}
	if err := fd.RunUntil(c, 2048); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitIdle(t, srv)

	// Resume under a DIFFERENT proposed trace: the checkpoint's stamp wins.
	c2 := dialT(t, srv)
	c2.Trace = obs.NewTraceID()
	if _, err := c2.Resume("traced", cfg); err != nil {
		t.Fatal(err)
	}
	if c2.Trace != minted {
		t.Fatalf("resume reports trace %v, want the original %v", c2.Trace, minted)
	}
	if _, err := fd.Run(c2); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, srv)

	// Zero client trace: the server mints one.
	c3 := dialT(t, srv)
	if _, err := c3.Hello("minted-remotely", cfg); err != nil {
		t.Fatal(err)
	}
	if obs.Enabled && c3.Trace.IsZero() {
		t.Fatal("server did not mint a trace for a zero-trace hello")
	}
	if _, err := fd.Run(c3); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, srv)

	// Drop a session mid-stream with no detach frame, then drain the
	// server: the log must name both the disconnect and the drain.
	c4 := dialT(t, srv)
	if _, err := c4.Hello("dropped", cfg); err != nil {
		t.Fatal(err)
	}
	if err := fd.RunUntil(c4, 2048); err != nil {
		t.Fatal(err)
	}
	c4.Close()
	waitIdle(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if obs.Enabled {
		// The telemetry table kept ONE row for the detach/resume pair (same
		// trace rebinds the slot) and the wide-event log tells the story.
		snap := so.Sessions().Snapshot()
		byToken := map[string]obs.SessionInfo{}
		for _, r := range snap.Sessions {
			byToken[r.Token] = r
		}
		tr, ok := byToken["traced"]
		if !ok || tr.Trace != minted.String() || !tr.Resumed || tr.State != "finished" {
			t.Fatalf("traced session row %+v (present=%v)", tr, ok)
		}
		if tr.Edges != int64(len(edges)) {
			t.Fatalf("traced session row counts %d edges, want %d", tr.Edges, len(edges))
		}
		log := events.String()
		for _, want := range []string{
			`"event":"session_open"`, `"event":"session_detach"`, `"cause":"detach-frame"`,
			`"event":"session_resume"`, `"event":"session_finish"`,
			`"trace":"` + minted.String() + `"`,
			`"cause":"disconnect"`, `"event":"server_drain"`,
		} {
			if !strings.Contains(log, want) {
				t.Errorf("wide-event log missing %s:\n%s", want, log)
			}
		}
		// Each line is one self-describing JSON object.
		for i, line := range strings.Split(strings.TrimSpace(log), "\n") {
			var v map[string]any
			if err := json.Unmarshal([]byte(line), &v); err != nil {
				t.Errorf("wide-event line %d is not standalone JSON: %v\n%s", i+1, err, line)
			}
		}
	}
}

// localReference runs cfg's algorithm locally over edges.
func localReference(t testing.TB, cfg Config, edges []stream.Edge) Result {
	t.Helper()
	alg, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stream.RunEdges(alg, edges)
	return Result{Edges: r.Edges, Cover: r.Cover, Space: r.Space}
}

// detachWithCheckpoint opens a session under token, feeds stop edges and
// detaches gracefully, leaving a checkpoint behind.
func detachWithCheckpoint(t *testing.T, srv *Server, token string, cfg Config, edges []stream.Edge, stop int) {
	t.Helper()
	c := dialT(t, srv)
	if _, err := c.Hello(token, cfg); err != nil {
		t.Fatal(err)
	}
	fd := Feeder{Edges: edges, Batch: 512}
	if err := fd.RunUntil(c, stop); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Detach(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitIdle(t, srv)
}

// TestServeResumeMismatchIsTyped pins the satellite fix: resuming a
// checkpoint with a different algorithm (or instance shape) must fail with
// the typed mismatch error, not a decode panic or a generic failure.
func TestServeResumeMismatchIsTyped(t *testing.T) {
	edges := testEdges(t)
	cfg := testConfig(edges)
	srv := startServer(t, ServerConfig{})
	detachWithCheckpoint(t, srv, "mm", cfg, edges, 3000)

	t.Run("different-algorithm", func(t *testing.T) {
		other := cfg
		other.Algo, other.Alpha = "alg2", 22
		c := dialT(t, srv)
		_, err := c.Resume("mm", other)
		if !errors.Is(err, ErrRemoteMismatch) {
			t.Fatalf("got %v, want ErrRemoteMismatch", err)
		}
	})

	t.Run("different-shape", func(t *testing.T) {
		other := cfg
		other.N, other.M = cfg.N*2, cfg.M*2
		c := dialT(t, srv)
		_, err := c.Resume("mm", other)
		if err == nil {
			t.Fatal("shape-mismatched resume succeeded")
		}
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("got untyped error %v", err)
		}
	})

	// The checkpoint must survive the failed attempts: a correct resume
	// still works.
	t.Run("correct-config-still-resumes", func(t *testing.T) {
		c := dialT(t, srv)
		pos, err := c.Resume("mm", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pos != 3000 {
			t.Fatalf("resumed at %d, want 3000", pos)
		}
	})
}

func TestServeResumeUnknownTokenFails(t *testing.T) {
	edges := testEdges(t)
	srv := startServer(t, ServerConfig{})
	c := dialT(t, srv)
	_, err := c.Resume("never-existed", testConfig(edges))
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
	if !strings.Contains(err.Error(), "no checkpoint") {
		t.Fatalf("error %q does not explain the missing checkpoint", err)
	}
}

func TestServeDuplicateTokenRejected(t *testing.T) {
	edges := testEdges(t)
	cfg := testConfig(edges)
	srv := startServer(t, ServerConfig{})
	c1 := dialT(t, srv)
	if _, err := c1.Hello("dup", cfg); err != nil {
		t.Fatal(err)
	}
	c2 := dialT(t, srv)
	if _, err := c2.Hello("dup", cfg); !errors.Is(err, ErrRemote) {
		t.Fatalf("second hello for an attached token: got %v, want ErrRemote", err)
	}
}

func TestServeDrainingRejectsNewSessions(t *testing.T) {
	edges := testEdges(t)
	srv := startServer(t, ServerConfig{})
	srv.Manager().Drain()
	c := dialT(t, srv)
	if _, err := c.Hello("", testConfig(edges)); !errors.Is(err, ErrDraining) {
		t.Fatalf("hello on draining server: got %v, want ErrDraining", err)
	}
	c2 := dialT(t, srv)
	if _, err := c2.Resume("any", testConfig(edges)); !errors.Is(err, ErrDraining) {
		t.Fatalf("resume on draining server: got %v, want ErrDraining", err)
	}
}

// TestServeIdleTimeoutDetaches leaves a session silent past the idle
// timeout; the server must detach it with a checkpoint covering every edge
// it had received, so a resume continues seamlessly.
func TestServeIdleTimeoutDetaches(t *testing.T) {
	edges := testEdges(t)
	cfg := testConfig(edges)
	srv := startServer(t, ServerConfig{IdleTimeout: 50 * time.Millisecond})
	ref := localReference(t, cfg, edges)

	c := dialT(t, srv)
	if _, err := c.Hello("idle", cfg); err != nil {
		t.Fatal(err)
	}
	fd := Feeder{Edges: edges, Batch: 512}
	const stop = 4096
	if err := fd.RunUntil(c, stop); err != nil {
		t.Fatal(err)
	}
	waitIdle(t, srv) // the idle timeout fires and the server detaches

	c2 := dialT(t, srv)
	pos, err := c2.Resume("idle", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pos != stop {
		t.Fatalf("idle-detach checkpointed at %d, want %d", pos, stop)
	}
	res, err := fd.Run(c2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("post-idle-timeout fingerprint %#x, want %#x", res.Fingerprint(), ref.Fingerprint())
	}
}

// TestServeBadEdgeDetachesWithCheckpoint sends an edge outside the session
// shape: the server must answer with a typed error frame, and the edges
// accepted before the bad frame must survive in a checkpoint.
func TestServeBadEdgeDetachesWithCheckpoint(t *testing.T) {
	edges := testEdges(t)
	cfg := testConfig(edges)
	srv := startServer(t, ServerConfig{})
	c := dialT(t, srv)
	if _, err := c.Hello("bad", cfg); err != nil {
		t.Fatal(err)
	}
	fd := Feeder{Edges: edges, Batch: 512}
	const stop = 1024
	if err := fd.RunUntil(c, stop); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch([]stream.Edge{{Set: testM + 7, Elem: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Flush(); !errors.Is(err, ErrRemote) {
		t.Fatalf("flush after bad edge: got %v, want ErrRemote", err)
	}
	c.Close()
	waitIdle(t, srv)

	c2 := dialT(t, srv)
	pos, err := c2.Resume("bad", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pos != stop {
		t.Fatalf("checkpoint after bad frame at %d, want %d", pos, stop)
	}
}

// TestServeSlowAlgorithmLosesNothing drives a session far slower than its
// client: a 256-copy ensemble, whose copies run one after another on the
// session's goroutine, so the connection reader falls behind the client's
// writes. Nothing is lost, and the result is the local run's.
func TestServeSlowAlgorithmLosesNothing(t *testing.T) {
	edges := testEdges(t)[:4096]
	cfg := testConfig(edges)
	cfg.Copies = 256
	alg, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	local := stream.RunEdges(alg, edges)

	srv := startServer(t, ServerConfig{})
	c := dialT(t, srv)
	if _, err := c.Hello("", cfg); err != nil {
		t.Fatal(err)
	}
	fd := Feeder{Edges: edges, Batch: 64}
	res, err := fd.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Edges != len(edges) {
		t.Fatalf("processed %d edges, want %d", res.Edges, len(edges))
	}
	if !res.Cover.Equal(local.Cover) || res.Space != local.Space {
		t.Fatalf("served cover %d sets / space %+v, local %d sets / %+v",
			len(res.Cover.Sets), res.Space, len(local.Cover.Sets), local.Space)
	}
}

// TestServeManagerRejectsBadConfigs covers the validation edges directly.
func TestServeManagerRejectsBadConfigs(t *testing.T) {
	mgr, err := NewManager(NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},                                     // no algorithm
		{Algo: "kk"},                           // no shape
		{Algo: "nope", N: 10, M: 10},           // unregistered
		{Algo: "kk", N: -1, M: 10},             // negative n
		{Algo: "kk", N: 10, M: 10, Copies: -1}, // negative copies
	}
	for _, cfg := range bad {
		if _, err := mgr.Open("", obs.TraceID{}, cfg); err == nil {
			t.Errorf("Open accepted invalid config %+v", cfg)
		}
	}
	if _, err := mgr.Open("../escape", obs.TraceID{}, Config{Algo: "kk", N: 10, M: 10}); !errors.Is(err, ErrToken) {
		t.Errorf("path-escaping token: got %v, want ErrToken", err)
	}
}

// slowStore delays Put so tests can catch a server mid-detach.
type slowStore struct {
	CheckpointStore
	putDelay time.Duration
}

func (s *slowStore) Put(token string, data []byte) (int, error) {
	time.Sleep(s.putDelay)
	return s.CheckpointStore.Put(token, data)
}

// TestServeShutdownContextCanceled expires the shutdown context while a
// handler is mid-detach: Shutdown must return ctx.Err() promptly, and the
// session must STILL land durably in the store — an abandoned shutdown may
// give up waiting, never give up checkpointing.
func TestServeShutdownContextCanceled(t *testing.T) {
	edges := testEdges(t)
	cfg := testConfig(edges)
	mem := NewMemStore()
	slow := &slowStore{CheckpointStore: mem, putDelay: 250 * time.Millisecond}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Store: slow})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	c := dialT(t, srv)
	if _, err := c.Hello("slowckpt", cfg); err != nil {
		t.Fatal(err)
	}
	fd := Feeder{Edges: edges, Batch: 512}
	const stop = 2048
	if err := fd.RunUntil(c, stop); err != nil {
		t.Fatal(err)
	}
	// Flush so the server has provably consumed through stop before the
	// shutdown wake-up discards any unread bytes on the connection.
	if pos, err := c.Flush(); err != nil || pos != stop {
		t.Fatalf("flush: pos=%d err=%v", pos, err)
	}

	// Shutdown wakes the blocked reader, whose handler detaches into the
	// slow store; the context expires long before the Put completes.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after shutdown", err)
	}

	// The handler keeps going in the background: the checkpoint must land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if blob, err := mem.Get("slowckpt"); err == nil && len(blob) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never landed in the store after abandoned shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And it must be a complete, resumable checkpoint at the acked position.
	srv2, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Listen(); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done2; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	c2 := dialT(t, srv2)
	pos, err := c2.Resume("slowckpt", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pos != stop {
		t.Fatalf("resumed at %d, want %d", pos, stop)
	}
}

// TestServeNewServerNeedsStore: a server must be given a store or a
// directory to open one on.
func TestServeNewServerNeedsStore(t *testing.T) {
	if _, err := NewServer(ServerConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("NewServer without Store or Dir succeeded")
	}
}

// TestServeSteadyStateAllocs pins the zero-allocation contract of the
// serving hot path: once a session is warm, an edge-batch round trip —
// client encode, server frame read, decode into the session's edge buffer,
// ProcessBatch, flush ack — allocates nothing on either side. AllocsPerRun
// counts mallocs process-wide, so the bound covers the server's connection
// goroutine too.
func TestServeSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short races")
	}
	edges := testEdges(t)
	srv := startServer(t, ServerConfig{})
	c := dialT(t, srv)
	c.Timeout = 0 // deadline bookkeeping may allocate; steady state sets none
	cfg := Config{Algo: "kk", N: testN, M: testM, StreamLen: 1 << 30, Seed: testSeed}
	if _, err := c.Hello("", cfg); err != nil {
		t.Fatal(err)
	}
	batch := edges[:1024]
	send := func() {
		if err := c.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		send() // warm every reusable buffer on both sides
	}
	allocs := testing.AllocsPerRun(100, send)
	if allocs > 0.5 {
		t.Fatalf("steady-state edge batch allocates %.1f objects, want 0", allocs)
	}

	// The coalesced path holds too: a burst of batches queues locally (the
	// 8×~4KiB frames stay under the write threshold), ships as one write at
	// Sync, and the flush round trip drains it — still zero allocations.
	burst := func() {
		for i := 0; i < 8; i++ {
			if err := c.SendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		burst()
	}
	allocs = testing.AllocsPerRun(50, burst)
	if allocs > 0.5 {
		t.Fatalf("steady-state coalesced burst allocates %.1f objects, want 0", allocs)
	}
}

// TestServeConcurrentSessionsRace runs many simultaneous sessions through
// one server under the race detector: twice as many sessions as the
// lifecycle manager has lock stripes, every other one on a server-minted
// token, so opens, mints and finishes cross every stripe at once. They
// alternate between a 4-copy kk ensemble and Algorithm 1, and every third
// one detaches halfway and resumes on a new connection, so released
// working states go back to the pools while other sessions take theirs.
// Every session with the same configuration must produce the same bytes.
func TestServeConcurrentSessionsRace(t *testing.T) {
	edges := testEdges(t)
	srv := startServer(t, ServerConfig{})
	const sessions = 64 // 2 × lifecycle's 32 lock stripes
	cfgs := []Config{
		{Algo: "kk", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed, Copies: 4},
		{Algo: "alg1", N: testN, M: testM, StreamLen: len(edges), Seed: testSeed},
	}
	wants := make([]uint64, len(cfgs))
	for j, cfg := range cfgs {
		wants[j] = localReference(t, cfg, edges).Fingerprint()
	}

	var wg sync.WaitGroup
	fps := make([]uint64, sessions)
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := cfgs[i/2%len(cfgs)]
			c, err := Dial(srv.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer func() { c.Close() }()
			c.Timeout = 60 * time.Second
			token := "" // odd sessions let the server mint
			if i%2 == 0 {
				token = fmt.Sprintf("race-%d", i)
			}
			if token, err = c.Hello(token, cfg); err != nil {
				errs[i] = err
				return
			}
			fd := Feeder{Edges: edges, Batch: 256 + 64*i} // varied batching must not matter
			if i%3 == 0 {
				if err := fd.RunUntil(c, len(edges)/2); err != nil {
					errs[i] = err
					return
				}
				if _, err := c.Detach(); err != nil {
					errs[i] = err
					return
				}
				c.Close()
				if c, err = Dial(srv.Addr()); err != nil {
					errs[i] = err
					return
				}
				c.Timeout = 60 * time.Second
				if _, err := c.Resume(token, cfg); err != nil {
					errs[i] = err
					return
				}
			}
			res, err := fd.Run(c)
			if err != nil {
				errs[i] = err
				return
			}
			fps[i] = res.Fingerprint()
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if want := wants[i/2%len(cfgs)]; fps[i] != want {
			t.Fatalf("session %d fingerprint %#x, want %#x", i, fps[i], want)
		}
	}
}
