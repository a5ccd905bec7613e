// Command servesmoke is the `make serve-smoke` harness: a self-contained
// kill-and-reconnect exercise of the scserve/scfeed stack over real TCP.
// It starts the SCWIRE1 server used by scserve, then for each registered
// algorithm (plus a KK ensemble):
//
//  1. feeds an uninterrupted session with the scfeed client for reference;
//  2. feeds a second session with the same seed and drops the connection
//     mid-stream with no detach frame — the server must notice and persist
//     a checkpoint;
//  3. reconnects with a resume frame, resends only the suffix the server
//     asks for, and finishes.
//
// The resumed result must match the reference byte for byte (cover,
// certificate, edge count, space meters — compared via the golden
// fingerprint scheme). A final leg drains the server mid-session
// (Shutdown, as scserve does on SIGTERM), restarts it on the same
// checkpoint store, and resumes across the restart. Exit status is
// non-zero on any divergence.
//
// -store selects the checkpoint backend under test: "dir" exercises the
// durable FileStore (checkpoints in a temp directory), "mem" the
// in-process MemStore (the restart leg hands the same store instance to
// the new server, as a cluster shard adopting a peer's store would).
// `make serve-smoke` runs both.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"streamcover/internal/serve"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

func main() {
	storeKind := flag.String("store", "dir", "checkpoint store backend to exercise: dir or mem")
	contend := flag.Int("contend", 0,
		"run the lock-stripe contention leg instead: this many concurrent sessions on one server, results cross-checked")
	flag.Parse()
	if *contend > 0 {
		if err := runContend(*storeKind, *contend); err != nil {
			fmt.Fprintf(os.Stderr, "serve-smoke[%s,contend=%d]: FAIL: %v\n", *storeKind, *contend, err)
			os.Exit(1)
		}
		fmt.Printf("serve-smoke[%s,contend=%d]: PASS\n", *storeKind, *contend)
		return
	}
	if err := run(*storeKind); err != nil {
		fmt.Fprintf(os.Stderr, "serve-smoke[%s]: FAIL: %v\n", *storeKind, err)
		os.Exit(1)
	}
	fmt.Printf("serve-smoke[%s]: PASS\n", *storeKind)
}

const dialTimeout = 30 * time.Second

func run(storeKind string) error {
	var st serve.CheckpointStore
	switch storeKind {
	case "dir":
		dir, err := os.MkdirTemp("", "servesmoke")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fs, err := serve.NewFileStore(dir)
		if err != nil {
			return err
		}
		st = fs
	case "mem":
		st = serve.NewMemStore()
	default:
		return fmt.Errorf("unknown -store %q (want dir or mem)", storeKind)
	}

	const n, m, opt = 400, 6000, 10
	w := workload.Planted(xrand.New(101), n, m, opt, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(102))

	srv, err := serve.NewServer(serve.ServerConfig{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	base := serve.Config{N: n, M: m, StreamLen: len(edges)}
	cases := []serve.Config{
		{Algo: "kk", Seed: 7},
		{Algo: "alg1", Seed: 7},
		{Algo: "alg2", Seed: 7, Alpha: 45},
		{Algo: "es", Seed: 7, Alpha: 8},
		{Algo: "kk", Seed: 7, Copies: 4},
	}
	kill := len(edges) * 3 / 5
	for _, c := range cases {
		cfg := base
		cfg.Algo, cfg.Seed, cfg.Alpha, cfg.Copies = c.Algo, c.Seed, c.Alpha, c.Copies
		name := cfg.Algo
		if cfg.Copies > 1 {
			name = fmt.Sprintf("%s-x%d", cfg.Algo, cfg.Copies)
		}
		if err := killAndReconnect(srv, cfg, edges, kill, name); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("serve-smoke: %s ok (killed at edge ~%d of %d, resumed byte-identical)\n",
			name, kill, len(edges))
	}

	if err := drainAndRestart(srv, done, st, base, edges, kill); err != nil {
		return fmt.Errorf("drain-restart: %w", err)
	}
	fmt.Printf("serve-smoke: drain-restart ok (resumed across a server restart)\n")
	return nil
}

// runContend hammers one server with many concurrent sessions on the same
// deterministic workload: every open/close crosses the lifecycle manager's
// lock stripes and the frame.IO/ring free-lists at once, so under `go run
// -race` this leg is the striped manager's data-race probe. Every session
// must produce the byte-identical reference fingerprint.
func runContend(storeKind string, sessions int) error {
	var st serve.CheckpointStore
	switch storeKind {
	case "dir":
		dir, err := os.MkdirTemp("", "servesmoke-contend")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		fs, err := serve.NewFileStore(dir)
		if err != nil {
			return err
		}
		st = fs
	case "mem":
		st = serve.NewMemStore()
	default:
		return fmt.Errorf("unknown -store %q (want dir or mem)", storeKind)
	}

	const n, m, opt = 300, 4000, 8
	w := workload.Planted(xrand.New(101), n, m, opt, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(102))
	cfg := serve.Config{Algo: "kk", N: n, M: m, StreamLen: len(edges), Seed: 7}

	srv, err := serve.NewServer(serve.ServerConfig{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()

	ref, err := reference(srv.Addr(), cfg, edges)
	if err != nil {
		return fmt.Errorf("reference session: %w", err)
	}

	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := reference(srv.Addr(), cfg, edges)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = compare(ref, res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("session %d of %d: %w", i, sessions, err)
		}
	}
	return nil
}

// reference runs an uninterrupted session and returns its result.
func reference(addr string, cfg serve.Config, edges []stream.Edge) (serve.Result, error) {
	c, err := serve.Dial(addr)
	if err != nil {
		return serve.Result{}, err
	}
	defer c.Close()
	c.Timeout = dialTimeout
	if _, err := c.Hello("", cfg); err != nil {
		return serve.Result{}, err
	}
	fd := serve.Feeder{Edges: edges, Batch: 512}
	return fd.Run(c)
}

// killAndReconnect compares an abruptly killed and resumed session against
// the uninterrupted reference.
func killAndReconnect(srv *serve.Server, cfg serve.Config, edges []stream.Edge, kill int, token string) error {
	ref, err := reference(srv.Addr(), cfg, edges)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	// Kill: same seed, same stream, connection dropped mid-flight with no
	// detach frame — exactly a crashed client.
	c, err := serve.Dial(srv.Addr())
	if err != nil {
		return err
	}
	c.Timeout = dialTimeout
	if _, err := c.Hello(token, cfg); err != nil {
		c.Close()
		return err
	}
	fd := serve.Feeder{Edges: edges, Batch: 512}
	if err := fd.RunUntil(c, kill); err != nil {
		c.Close()
		return fmt.Errorf("partial feed: %w", err)
	}
	c.Close()

	// The server detaches asynchronously once the read fails; wait for the
	// token to free up.
	if err := waitDetached(srv, token); err != nil {
		return err
	}

	// Resume: the server tells us where its checkpoint left off; resend
	// only the suffix.
	c, err = serve.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	c.Timeout = dialTimeout
	pos, err := c.Resume(token, cfg)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if pos <= 0 || pos > kill {
		return fmt.Errorf("resume position %d outside (0, %d]", pos, kill)
	}
	res, err := fd.Run(c)
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	return compare(ref, res)
}

// drainAndRestart kills the server (graceful Shutdown, as SIGTERM does)
// while a session is attached mid-stream, restarts it on the same
// checkpoint store, and resumes there. With the dir backend this is a true
// process-style restart (state only on disk); with mem it models a cluster
// shard handing its store to a successor.
func drainAndRestart(srv *serve.Server, done chan error, st serve.CheckpointStore, base serve.Config, edges []stream.Edge, kill int) error {
	cfg := base
	cfg.Algo, cfg.Seed = "kk", 7
	ref, err := reference(srv.Addr(), cfg, edges)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	const token = "restart"
	c, err := serve.Dial(srv.Addr())
	if err != nil {
		return err
	}
	c.Timeout = dialTimeout
	if _, err := c.Hello(token, cfg); err != nil {
		c.Close()
		return err
	}
	fd := serve.Feeder{Edges: edges, Batch: 512}
	if err := fd.RunUntil(c, kill); err != nil {
		c.Close()
		return fmt.Errorf("partial feed: %w", err)
	}
	// Make sure the server has consumed what we sent, then drain it with
	// the session still attached: Shutdown must checkpoint it.
	if _, err := c.Flush(); err != nil {
		c.Close()
		return fmt.Errorf("flush: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		c.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	c.Close()
	if err := <-done; err != nil {
		return fmt.Errorf("server exit: %w", err)
	}

	srv2, err := serve.NewServer(serve.ServerConfig{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		return err
	}
	if err := srv2.Listen(); err != nil {
		return err
	}
	done2 := make(chan error, 1)
	go func() { done2 <- srv2.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
		defer cancel()
		srv2.Shutdown(ctx)
		<-done2
	}()

	c, err = serve.Dial(srv2.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	c.Timeout = dialTimeout
	pos, err := c.Resume(token, cfg)
	if err != nil {
		return fmt.Errorf("resume after restart: %w", err)
	}
	if pos != kill {
		return fmt.Errorf("resume position %d after flushed drain, want %d", pos, kill)
	}
	res, err := fd.Run(c)
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	return compare(ref, res)
}

// waitDetached polls until the server has noticed the dropped connection
// and released the token.
func waitDetached(srv *serve.Server, token string) error {
	deadline := time.Now().Add(dialTimeout)
	for srv.Manager().Active() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("session %q still attached after dropped connection", token)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// compare demands byte-identical observable output.
func compare(ref, res serve.Result) error {
	if ref.Fingerprint() != res.Fingerprint() {
		return fmt.Errorf("fingerprint %#x after resume, want %#x (cover %d vs %d sets, space %+v vs %+v, edges %d vs %d)",
			res.Fingerprint(), ref.Fingerprint(),
			len(res.Cover.Sets), len(ref.Cover.Sets), res.Space, ref.Space, res.Edges, ref.Edges)
	}
	if !ref.Cover.Equal(res.Cover) {
		return fmt.Errorf("fingerprints match but covers differ — fingerprint scheme broken")
	}
	return nil
}
