package streamcover

// End-to-end benchmark of the SCWIRE1 serving stack: 64 concurrent
// sessions per op, each feeding the full fixture stream over loopback TCP
// and finishing. This exercises the whole pipeline — client framing,
// server frame reads, in-place decode, batched dispatch, result framing —
// under the multi-tenant load the session manager is built for, and is
// tracked by scbenchdiff alongside the local EndToEnd benchmarks.
//
// The ObsOff/Obs pair isolates the telemetry tax: the same workload with
// no observability wired versus the full surface (session table, latency
// histograms, serve metrics) attached. Their delta is the per-session
// instrumentation overhead the zero-steady-state-allocation discipline is
// supposed to keep negligible.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"streamcover/internal/obs"
)

// benchServeEndToEnd runs the 64-session loopback workload against a server
// carrying the given observability handle (nil = uninstrumented).
func benchServeEndToEnd(b *testing.B, so *obs.ServeObs) {
	benchServeSessions(b, so, 64)
}

// benchServeSessions runs the loopback workload with a configurable number
// of concurrent sessions per op (the scaling axis of
// BenchmarkServeSessionsScaling).
func benchServeSessions(b *testing.B, so *obs.ServeObs, sessions int) {
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := Arrange(w.Inst, RandomOrder, NewRand(23))
	cfg := ServeConfig{Algo: "kk", N: n, M: m, StreamLen: len(edges), Seed: 42}

	// Explicit FileStore: the benchmark keeps the same durable checkpoint
	// backend it always had, so numbers stay comparable across the store
	// refactor. (Sessions finish rather than detach, so the store stays off
	// the measured path either way.)
	st, err := NewServeFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServeServer(ServeServerConfig{Addr: "127.0.0.1:0", Store: st, Obs: so})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
		if err := <-done; err != nil {
			b.Error(err)
		}
	}()

	b.ResetTimer()
	cpu0 := cpuSeconds()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c, err := DialServe(srv.Addr())
				if err != nil {
					errs[s] = err
					return
				}
				defer c.Close()
				c.Timeout = 5 * time.Minute
				if _, err := c.Hello(fmt.Sprintf("bench-%d-%d", i, s), cfg); err != nil {
					errs[s] = err
					return
				}
				fd := ServeFeeder{Edges: edges, Batch: 1024}
				res, err := fd.Run(c)
				if err != nil {
					errs[s] = err
					return
				}
				if len(res.Cover.Sets) == 0 {
					errs[s] = fmt.Errorf("empty cover")
				}
			}(s)
		}
		wg.Wait()
		for s, err := range errs {
			if err != nil {
				b.Fatalf("session %d: %v", s, err)
			}
		}
	}
	reportThroughput(b, len(edges)*sessions, cpu0)
	b.ReportMetric(float64(sessions), "sessions/op")
}

func BenchmarkServeEndToEnd(b *testing.B) { benchServeEndToEnd(b, nil) }

// BenchmarkServeSessionsScaling sweeps the concurrent-session count, so the
// transport's fixed sizes (read windows, the write-coalescing threshold,
// the lifecycle lock-stripe count) have a measured basis across load
// levels rather than a single 64-session point. Watch edges/sec/core stay
// flat as sessions grow: on one core the sweep measures scheduling and
// contention overhead, not parallel speedup.
func BenchmarkServeSessionsScaling(b *testing.B) {
	for _, sessions := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			benchServeSessions(b, nil, sessions)
		})
	}
}

// BenchmarkServeEndToEndObsOff is the uninstrumented baseline of the pair
// (same as BenchmarkServeEndToEnd, named so scbenchdiff lines it up against
// the instrumented run below).
func BenchmarkServeEndToEndObsOff(b *testing.B) { benchServeEndToEnd(b, nil) }

// BenchmarkServeEndToEndObs attaches the full serving telemetry surface:
// per-session table slots, frame-latency histograms, wide events disabled
// (no writer), serve metrics registered on a private hub.
func BenchmarkServeEndToEndObs(b *testing.B) {
	hub := obs.NewHub(1024)
	benchServeEndToEnd(b, hub.Serve())
}
