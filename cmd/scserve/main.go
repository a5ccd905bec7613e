// Command scserve runs the SCWIRE1 edge-stream ingestion service: it
// accepts TCP connections from scfeed (or any SCWIRE1 client), runs one
// of the served streaming algorithms per session on the batched hot path, and
// rides out disconnects by checkpointing detached sessions to a pluggable
// checkpoint store so a reconnecting client can resume exactly where it
// left off.
//
// Usage:
//
//	scserve -listen 127.0.0.1:7600 -dir /var/tmp/scserve
//	scserve -listen :0 -dir ckpt -idle-timeout 30s
//	scserve -listen :0 -store mem
//
// -store selects the checkpoint backend: "dir" (default) persists each
// detached session as <token>.ckpt under -dir and survives restarts;
// "mem" keeps checkpoints in process memory — resumes work across
// disconnects but not across a process restart; "cluster" speaks SCSTOR1
// to the shared store server at -store-addr, letting any shard behind an
// scrouter adopt any session's checkpoint (-shard names this process on
// its wide events).
//
// SIGINT/SIGTERM drains gracefully: new sessions are refused, open
// connections are woken, and every attached session is checkpointed before
// the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"streamcover/internal/cli"
	"streamcover/internal/obs"
	"streamcover/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		listen       = flag.String("listen", "127.0.0.1:7600", "TCP listen address (\":0\" picks a free port)")
		dir          = flag.String("dir", "scserve-ckpt", "directory for detach checkpoints (-store dir)")
		storeKind    = flag.String("store", "dir", "checkpoint store backend: dir (durable files under -dir), mem (in-process), or cluster (shared SCSTOR1 server at -store-addr)")
		storeAddr    = flag.String("store-addr", "", "SCSTOR1 shared store server address (required with -store cluster)")
		storeTimeout = flag.Duration("store-timeout", 0, "per-request deadline against the cluster store (0 = default)")
		shard        = flag.String("shard", "", "shard name stamped on this server's wide events (cluster deployments)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "detach a session after this long without a frame (0 = never)")
		writeTimeout = flag.Duration("write-timeout", 10*time.Second, "per-response write deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for sessions to checkpoint")
		events       = flag.String("events", "", "write session lifecycle wide events (one JSON line each) to this file (\"-\" = stderr)")
		mutexFrac    = flag.Int("mutexprofile", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex on the -obs-addr mux (0 = off)")
		blockRate    = flag.Int("blockprofile", 0, "sample blocking events >= n ns for /debug/pprof/block on the -obs-addr mux (0 = off)")
	)
	obsOpt := cli.RegisterObsFlags(flag.CommandLine)
	flag.DurationVar(&obsOpt.Hold, "obs-hold", 0,
		"keep the observability server up this long after drain, so probes can observe the not-ready state")
	flag.Parse()

	// Contention profiling is opt-in: the samplers cost a little on every
	// lock handoff, and the profiles are only reachable through the obs
	// mux, so they default off and are enabled for stripe-tuning runs.
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	session, err := cli.StartObs(*obsOpt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scserve: %v\n", err)
		return 1
	}
	defer func() {
		if err := session.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "scserve: %v\n", err)
		}
	}()

	so := obs.ServeObsFor()
	if *events != "" {
		if *events == "-" {
			so.SetEventWriter(os.Stderr)
		} else {
			f, err := os.Create(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "scserve: events log: %v\n", err)
				return 1
			}
			defer f.Close()
			so.SetEventWriter(f)
		}
	}

	var ckpt serve.CheckpointStore
	var where string
	switch *storeKind {
	case "dir":
		fs, err := serve.NewFileStore(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scserve: %v\n", err)
			return 1
		}
		ckpt, where = fs, "dir "+*dir
	case "mem":
		ckpt, where = serve.NewMemStore(), "mem (lost on restart)"
	case "cluster":
		if *storeAddr == "" {
			fmt.Fprintln(os.Stderr, "scserve: -store cluster requires -store-addr")
			return 2
		}
		ckpt, where = serve.NewClusterStore(*storeAddr, *storeTimeout), "cluster "+*storeAddr
	default:
		fmt.Fprintf(os.Stderr, "scserve: unknown -store %q (want dir, mem, or cluster)\n", *storeKind)
		return 2
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	srv, err := serve.NewServer(serve.ServerConfig{
		Addr:         *listen,
		Store:        ckpt,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		Obs:          so,
		Log:          logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scserve: %v\n", err)
		return 1
	}
	if *shard != "" {
		srv.Manager().SetShard(*shard)
	}
	if err := srv.Listen(); err != nil {
		fmt.Fprintf(os.Stderr, "scserve: %v\n", err)
		return 1
	}
	fmt.Printf("scserve: listening on %s (algorithms: %v, checkpoints in %s)\n",
		srv.Addr(), serve.Algorithms(), where)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	select {
	case sig := <-sigs:
		logger.Printf("scserve: %v: draining (checkpointing attached sessions)", sig)
		session.Hub().SetReady(false) // /readyz answers 503 for the rest of the drain
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "scserve: shutdown: %v\n", err)
			return 1
		}
		<-done
		logger.Printf("scserve: drained cleanly")
		return 0
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "scserve: %v\n", err)
			return 1
		}
		return 0
	}
}
