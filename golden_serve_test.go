package streamcover

// Network extension of the golden fixtures: the same workload, seeds and
// algorithms as golden_test.go, but fed over TCP through the SCWIRE1
// serving stack. The served fingerprints must equal the recorded seed
// implementation's — the wire framing, in-place decode and batched dispatch
// must not perturb a single byte of observable output. A second sweep
// kills the connection mid-stream (no detach frame), resumes from the
// server's checkpoint, and demands the same fingerprints again — once per
// checkpoint-store backend, pinning that detach/resume stays byte-exact
// whether the checkpoint round-trips through the durable FileStore or the
// in-process MemStore.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// goldenServeHarness starts one server and prepares the fixture edges for
// each order once.
type goldenServeHarness struct {
	srv   *ServeServer
	edges map[Order][]Edge
}

func newGoldenServeHarness(t *testing.T, st ServeCheckpointStore) *goldenServeHarness {
	t.Helper()
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	h := &goldenServeHarness{edges: make(map[Order][]Edge)}
	for _, order := range []Order{SetMajor, RoundRobin, RandomOrder} {
		h.edges[order] = Arrange(w.Inst, order, NewRand(23))
	}
	h.srv = startGoldenServer(t, st)
	return h
}

// startGoldenServer serves st on a loopback port until the test ends. A
// server the test already shut down is shut down again, which is a no-op.
func startGoldenServer(t *testing.T, st ServeCheckpointStore) *ServeServer {
	t.Helper()
	srv, err := NewServeServer(ServeServerConfig{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
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

// config mirrors goldenCase's constructor seeds exactly: algorithm seed 42,
// alg2 at alpha 40.
func (h *goldenServeHarness) config(alg string, order Order) ServeConfig {
	cfg := ServeConfig{Algo: alg, N: 300, M: 4000, StreamLen: len(h.edges[order]), Seed: 42}
	if alg == "alg2" {
		cfg.Alpha = 40
	}
	return cfg
}

func (h *goldenServeHarness) dial(t *testing.T) *ServeClient {
	t.Helper()
	c, err := DialServe(h.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Timeout = 60 * time.Second
	return c
}

func (h *goldenServeHarness) waitDetached(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for h.srv.Manager().Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session still attached after dropped connection")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// goldenStoreBackends enumerates the checkpoint stores the resume sweep
// runs against. open returns a reopen function: each call yields a store
// over the same checkpoints, as a restarted server would find them — a
// fresh FileStore on the same directory, or the same MemStore instance
// (memory only survives a restart inside one process).
func goldenStoreBackends(t *testing.T) []struct {
	name string
	open func(t *testing.T) func() ServeCheckpointStore
} {
	t.Helper()
	return []struct {
		name string
		open func(t *testing.T) func() ServeCheckpointStore
	}{
		{"dir", func(t *testing.T) func() ServeCheckpointStore {
			dir := t.TempDir()
			return func() ServeCheckpointStore {
				st, err := NewServeFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
		}},
		{"mem", func(t *testing.T) func() ServeCheckpointStore {
			st := NewServeMemStore()
			return func() ServeCheckpointStore { return st }
		}},
	}
}

// goldenClusterHarness is the sharded variant: n servers behind a
// consistent-hash router, all sharing one SCSTOR1 store server — the
// topology scrouter + scserve -store cluster deploys as processes, here
// in-process so the golden sweep can kill shards deterministically.
type goldenClusterHarness struct {
	router *ServeRouter
	shards map[string]*ServeServer
	edges  map[Order][]Edge
}

func newGoldenClusterHarness(t *testing.T, edges map[Order][]Edge, n int) *goldenClusterHarness {
	t.Helper()
	storeSrv, err := NewServeStoreServer(NewServeMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if err := storeSrv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go storeSrv.Serve()
	t.Cleanup(func() { storeSrv.Close() })

	h := &goldenClusterHarness{shards: make(map[string]*ServeServer, n), edges: edges}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, err := NewServeServer(ServeServerConfig{
			Addr:  "127.0.0.1:0",
			Store: NewServeClusterStore(storeSrv.Addr(), 10*time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx) // killed shards are already down; a second shutdown is a no-op
			if err := <-done; err != nil {
				t.Errorf("shard serve: %v", err)
			}
		})
		h.shards[srv.Addr()] = srv
		addrs = append(addrs, srv.Addr())
	}

	router, err := NewServeRouter(ServeRouterConfig{
		Addr:         "127.0.0.1:0",
		Shards:       addrs,
		DownCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.Listen(); err != nil {
		t.Fatal(err)
	}
	rdone := make(chan error, 1)
	go func() { rdone <- router.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := router.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
		if err := <-rdone; err != nil {
			t.Errorf("router serve: %v", err)
		}
	})
	h.router = router
	return h
}

func (h *goldenClusterHarness) config(alg string, order Order) ServeConfig {
	cfg := ServeConfig{Algo: alg, N: 300, M: 4000, StreamLen: len(h.edges[order]), Seed: 42}
	if alg == "alg2" {
		cfg.Alpha = 40
	}
	return cfg
}

func (h *goldenClusterHarness) dial(t *testing.T) *ServeClient {
	t.Helper()
	c, err := DialServe(h.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Timeout = 60 * time.Second
	return c
}

// killShard drains the shard at addr (the in-process equivalent of
// SIGTERM on its scserve): its attached sessions checkpoint into the
// shared store before this returns.
func (h *goldenClusterHarness) killShard(t *testing.T, addr string) {
	t.Helper()
	srv, ok := h.shards[addr]
	if !ok {
		t.Fatalf("no shard at %q", addr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("killing shard %s: %v", addr, err)
	}
}

// TestGoldenOutputsThroughCluster runs the golden sweep across cluster
// shapes: a single shard behind the router, three shards, and three
// shards with the session's owner killed mid-stream so a survivor adopts
// its checkpoint. Every shape must reproduce the recorded golden
// fingerprints byte for byte, and the trace ID minted at hello must
// survive routing — and, in the kill shape, survive adoption.
func TestGoldenOutputsThroughCluster(t *testing.T) {
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := map[Order][]Edge{RandomOrder: Arrange(w.Inst, RandomOrder, NewRand(23))}

	shapes := []struct {
		name   string
		shards int
		kill   bool
	}{
		{"1shard", 1, false},
		{"3shards", 3, false},
		{"3shards-kill", 3, true},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			// The kill shape consumes a shard per run, so each algorithm
			// gets a fresh cluster; the live shapes share one.
			var shared *goldenClusterHarness
			if !shape.kill {
				shared = newGoldenClusterHarness(t, edges, shape.shards)
			}
			order := RandomOrder
			for _, alg := range []string{"kk", "alg1", "alg2"} {
				alg := alg
				key := fmt.Sprintf("%s/%s", alg, order)
				t.Run(key, func(t *testing.T) {
					h := shared
					if h == nil {
						h = newGoldenClusterHarness(t, edges, shape.shards)
					}
					cfg := h.config(alg, order)
					fd := ServeFeeder{Edges: edges[order], Batch: 1024}
					token := fmt.Sprintf("golden-%s-%s", shape.name, alg)

					c := h.dial(t)
					c.Trace = NewTraceID()
					minted := c.Trace
					if _, err := c.Hello(token, cfg); err != nil {
						t.Fatal(err)
					}
					if c.Trace != minted {
						t.Fatalf("hello through the router rewrote the trace: %s -> %s", minted, c.Trace)
					}

					if !shape.kill {
						res, err := fd.Run(c)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := res.Fingerprint(), goldenExpected[key]; got != want {
							t.Fatalf("clustered fingerprint %#x, want golden %#x — routing changed observable output", got, want)
						}
						return
					}

					// Kill shape: feed 3/5, flush so the checkpoint position
					// is exact, kill the shard that owns the token, and
					// resume through the router — a survivor adopts.
					owner := h.router.ShardFor(token)
					kill := len(edges[order]) * 3 / 5
					if err := fd.RunUntil(c, kill); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Flush(); err != nil {
						t.Fatal(err)
					}
					h.killShard(t, owner)

					c2 := h.dial(t)
					c2.Trace = NewTraceID() // must lose to the checkpoint's stamp
					pos, err := c2.Resume(token, cfg)
					if err != nil {
						t.Fatalf("resume after shard kill: %v", err)
					}
					if pos != kill {
						t.Fatalf("adopted at position %d, want %d", pos, kill)
					}
					if c2.Trace != minted {
						t.Fatalf("trace did not survive adoption: opened as %s, resumed as %s", minted, c2.Trace)
					}
					res, err := fd.Run(c2)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := res.Fingerprint(), goldenExpected[key]; got != want {
						t.Fatalf("adopted fingerprint %#x, want golden %#x — cross-shard adoption changed observable output", got, want)
					}
				})
			}
		})
	}
}

func TestGoldenOutputsThroughServer(t *testing.T) {
	// No session detaches here, so the store never sees traffic; run on the
	// dirless backend.
	h := newGoldenServeHarness(t, NewServeMemStore())
	for _, alg := range []string{"kk", "alg1", "alg2"} {
		for _, order := range []Order{SetMajor, RoundRobin, RandomOrder} {
			key := fmt.Sprintf("%s/%s", alg, order)
			t.Run(key, func(t *testing.T) {
				c := h.dial(t)
				if _, err := c.Hello("", h.config(alg, order)); err != nil {
					t.Fatal(err)
				}
				fd := ServeFeeder{Edges: h.edges[order], Batch: 1024}
				res, err := fd.Run(c)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := res.Fingerprint(), goldenExpected[key]; got != want {
					t.Fatalf("served fingerprint %#x, want golden %#x — the wire path changed observable output", got, want)
				}
			})
		}
	}
}

// TestGoldenOutputsThroughServerResume kills the connection mid-stream
// with no warning and resumes; the final output must still match the
// golden fingerprints of an uninterrupted local run, and the session's
// trace ID — minted at the original hello, recovered from the checkpoint —
// must survive the kill unchanged. A drain-restart leg then shuts the
// server down with sessions attached, as SIGTERM does, and resumes them on
// a new server over the same store. The sweep runs once per checkpoint
// store backend: the checkpoint bytes round-trip through each store and
// must reproduce the goldens either way.
func TestGoldenOutputsThroughServerResume(t *testing.T) {
	for _, backend := range goldenStoreBackends(t) {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			reopen := backend.open(t)
			h := newGoldenServeHarness(t, reopen())
			for _, alg := range []string{"kk", "alg1", "alg2"} {
				alg := alg
				order := RandomOrder
				key := fmt.Sprintf("%s/%s", alg, order)
				t.Run(key, func(t *testing.T) {
					edges := h.edges[order]
					cfg := h.config(alg, order)
					token := "golden-" + alg
					kill := len(edges) * 3 / 5

					c := h.dial(t)
					c.Trace = NewTraceID()
					minted := c.Trace
					if _, err := c.Hello(token, cfg); err != nil {
						t.Fatal(err)
					}
					if c.Trace != minted {
						t.Fatalf("hello ack rewrote the client-minted trace: %s -> %s", minted, c.Trace)
					}
					fd := ServeFeeder{Edges: edges, Batch: 1024}
					if err := fd.RunUntil(c, kill); err != nil {
						t.Fatal(err)
					}
					c.Close() // crash the client: no flush, no detach
					h.waitDetached(t)

					c2 := h.dial(t)
					c2.Trace = NewTraceID() // a fresh proposal must lose to the checkpoint's stamp
					pos, err := c2.Resume(token, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if pos <= 0 || pos > kill {
						t.Fatalf("resume position %d outside (0, %d]", pos, kill)
					}
					if c2.Trace != minted {
						t.Fatalf("trace did not survive kill-and-resume: opened as %s, resumed as %s", minted, c2.Trace)
					}
					res, err := fd.Run(c2)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := res.Fingerprint(), goldenExpected[key]; got != want {
						t.Fatalf("resumed fingerprint %#x, want golden %#x — kill-and-reconnect changed observable output", got, want)
					}
				})
			}

			// Drain-restart: feed 3/5 of each algorithm's stream and flush so
			// the server has consumed exactly that much, then shut it down
			// with every session attached. Shutdown must checkpoint each one
			// at its flushed position for the new server to resume.
			t.Run("drain-restart", func(t *testing.T) {
				order := RandomOrder
				edges := h.edges[order]
				kill := len(edges) * 3 / 5
				fd := ServeFeeder{Edges: edges, Batch: 1024}
				algs := []string{"kk", "alg1", "alg2"}
				for _, alg := range algs {
					c := h.dial(t)
					if _, err := c.Hello("restart-"+alg, h.config(alg, order)); err != nil {
						t.Fatal(err)
					}
					if err := fd.RunUntil(c, kill); err != nil {
						t.Fatal(err)
					}
					if _, err := c.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := h.srv.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}

				h.srv = startGoldenServer(t, reopen())
				for _, alg := range algs {
					key := fmt.Sprintf("%s/%s", alg, order)
					c := h.dial(t)
					pos, err := c.Resume("restart-"+alg, h.config(alg, order))
					if err != nil {
						t.Fatalf("%s: resume after restart: %v", alg, err)
					}
					if pos != kill {
						t.Fatalf("%s: resumed at %d after a flushed drain, want %d", alg, pos, kill)
					}
					res, err := fd.Run(c)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := res.Fingerprint(), goldenExpected[key]; got != want {
						t.Fatalf("%s: fingerprint %#x after drain-restart, want golden %#x", alg, got, want)
					}
				}
			})
		})
	}
}
