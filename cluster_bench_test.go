package streamcover

// Cross-shard adoption benchmark: a session detaches on one shard and is
// resumed on another, with the checkpoint crossing the shared SCSTOR1
// cluster store both ways. The adoption-ns/op metric is the client-visible
// resume latency — the wire round trip plus the store Get plus checkpoint
// restore — which is the cost a router failover adds to a session when its
// shard dies. Tracked by scbenchdiff alongside the EndToEnd benchmarks.

import (
	"context"
	"fmt"
	"testing"
	"time"
)

func BenchmarkClusterAdoption(b *testing.B) {
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := Arrange(w.Inst, RandomOrder, NewRand(23))
	cfg := ServeConfig{Algo: "kk", N: n, M: m, StreamLen: len(edges), Seed: 42}
	half := len(edges) / 2

	storeSrv, err := NewServeStoreServer(NewServeMemStore())
	if err != nil {
		b.Fatal(err)
	}
	if err := storeSrv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go storeSrv.Serve()
	defer storeSrv.Close()

	shards := make([]*ServeServer, 2)
	for i := range shards {
		srv, err := NewServeServer(ServeServerConfig{
			Addr:  "127.0.0.1:0",
			Store: NewServeClusterStore(storeSrv.Addr(), 30*time.Second),
		})
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
		shards[i] = srv
	}

	fd := ServeFeeder{Edges: edges, Batch: 1024}
	var adoptNs int64
	b.ResetTimer()
	cpu0 := cpuSeconds()
	for i := 0; i < b.N; i++ {
		token := fmt.Sprintf("bench-adopt-%d", i)

		// Build the checkpoint on shard A: half the stream, then detach.
		c1, err := DialServe(shards[0].Addr())
		if err != nil {
			b.Fatal(err)
		}
		c1.Timeout = 5 * time.Minute
		if _, err := c1.Hello(token, cfg); err != nil {
			b.Fatal(err)
		}
		if err := fd.RunUntil(c1, half); err != nil {
			b.Fatal(err)
		}
		if _, err := c1.Detach(); err != nil {
			b.Fatal(err)
		}
		c1.Close()

		// Adopt on shard B: the resume pulls the checkpoint through the
		// shared store into a process that has never seen the session.
		c2, err := DialServe(shards[1].Addr())
		if err != nil {
			b.Fatal(err)
		}
		c2.Timeout = 5 * time.Minute
		t0 := time.Now()
		pos, err := c2.Resume(token, cfg)
		adoptNs += time.Since(t0).Nanoseconds()
		if err != nil {
			b.Fatal(err)
		}
		if pos != half {
			b.Fatalf("adopted at %d, want %d", pos, half)
		}
		if _, err := fd.Run(c2); err != nil {
			b.Fatal(err)
		}
		c2.Close()
	}
	b.ReportMetric(float64(adoptNs)/float64(b.N), "adoption-ns/op")
	reportThroughput(b, len(edges), cpu0)
}
