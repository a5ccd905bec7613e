package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/serve"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/serve/store"
	"streamcover/internal/space"
	"streamcover/internal/stream"
	wgen "streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// Every workload streams the ROADMAP's planted instance shape in random
// arrival order (72,156 edges at the repository's fixture seeds; other
// seeds give streams of about that length), in frames of frameEdges edges.
const (
	shapeN, shapeM, shapeOpt = 300, 4000, 8
	frameEdges               = 1024
	backlogSize              = 10000 // parked checkpoints on churn-alg1's store
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name string
	algo string
	// cuts is the number of evenly spaced points at which each session
	// detaches and resumes on a fresh connection.
	cuts int
	// mint hellos with an empty token, so the server mints it.
	mint bool
	// disk keeps checkpoints in a FileStore; otherwise the server's store
	// is a MemStore, or for the routed workload the cluster store.
	disk bool
	// backlog is the number of parked checkpoints seeded into the store.
	backlog int
	// routed puts a router in front of two shards sharing a cluster store;
	// resumes dial the shard the ring does not place the session on.
	routed bool
}

var workloads = map[string]workload{
	"stream-kk":       {name: "stream-kk", algo: "kk"},
	"churn-alg1":      {name: "churn-alg1", algo: "alg1", cuts: 4, mint: true, disk: true, backlog: backlogSize},
	"routed-adopt-kk": {name: "routed-adopt-kk", algo: "kk", cuts: 1, routed: true},
}

// input is a workload's generated stream and its in-process reference.
type input struct {
	edges []stream.Edge
	cfg   serve.Config
	// cuts are the session's detach points; ckptCuts are the points the
	// checkpoint layers are measured at: the cuts, or the stream's middle
	// for a workload whose sessions never detach.
	cuts, ckptCuts []int
	blobs          [][]byte // the reference run's checkpoint at each ckptCut
	ref            serve.Result
	fp             uint64 // ref.Fingerprint(): every served session must match it
}

func makeInput(w workload, seed uint64) (*input, error) {
	inst := wgen.Planted(xrand.New(seed), shapeN, shapeM, shapeOpt, 0).Inst
	edges := stream.Arrange(inst, stream.Random, xrand.New(seed^0x5eed0f0dde55))
	in := &input{
		edges: edges,
		cfg:   serve.Config{Algo: w.algo, N: shapeN, M: shapeM, StreamLen: len(edges), Seed: seed},
		cuts:  cutPoints(len(edges), w.cuts),
	}
	in.ckptCuts = in.cuts
	if len(in.ckptCuts) == 0 {
		in.ckptCuts = []int{len(edges) / 2}
	}
	alg, err := lifecycle.Build(in.cfg)
	if err != nil {
		return nil, err
	}
	pos := 0
	for _, cut := range in.ckptCuts {
		if err := processRange(alg, edges, pos, cut, nil); err != nil {
			return nil, err
		}
		pos = cut
		var buf bytes.Buffer
		if err := stream.WriteCheckpointTraced(&buf, cut, obs.NewTraceID(), alg); err != nil {
			return nil, fmt.Errorf("reference checkpoint: %w", err)
		}
		in.blobs = append(in.blobs, buf.Bytes())
	}
	if err := processRange(alg, edges, pos, len(edges), nil); err != nil {
		return nil, err
	}
	in.ref = finishResult(alg, len(edges))
	in.fp = in.ref.Fingerprint()
	return in, nil
}

// cutPoints places k evenly spaced detach points inside a stream of n edges.
func cutPoints(n, k int) []int {
	var cuts []int
	for i := 1; i <= k; i++ {
		cuts = append(cuts, n*i/(k+1))
	}
	return cuts
}

// processRange feeds edges[from:to] to alg through ProcessBatch in the
// frames a client sends them in, one span per call when tr is set.
func processRange(alg stream.Algorithm, edges []stream.Edge, from, to int, tr *tracer) error {
	bp, ok := alg.(stream.BatchProcessor)
	if !ok {
		return fmt.Errorf("algorithm %T has no ProcessBatch", alg)
	}
	for pos := from; pos < to; pos += frameEdges {
		sp := tr.begin("algo.ProcessBatch", "", 0)
		bp.ProcessBatch(edges[pos:min(pos+frameEdges, to)])
		tr.end(sp)
	}
	return nil
}

// finishResult finishes alg the way a session worker does.
func finishResult(alg stream.Algorithm, edges int) serve.Result {
	res := serve.Result{Edges: edges, Cover: alg.Finish()}
	if rep, ok := alg.(space.Reporter); ok {
		res.Space = rep.Space()
	}
	return res
}

// stack is the serving side of a workload: one server on a local-disk
// store, or a router in front of two shards sharing a cluster store.
type stack struct {
	entry    string // address sessions open on
	shards   []*serve.Server
	router   *serve.Router
	own      store.CheckpointStore // the single server's store (nil on the routed stack)
	file     *store.FileStore      // the same, when it is on local disk
	storeSrv *store.StoreServer    // shared store server (routed stack only)
	stops    []func() error        // teardown, run in reverse
}

// newStack starts the workload's stack. A workload on local disk keeps its
// store in storeDir, which seedBacklog has prepared.
func newStack(w workload, storeDir string) (*stack, error) {
	st := &stack{}
	var err error
	if w.routed {
		err = st.startCluster()
	} else {
		err = st.startLocal(w, storeDir)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// seedBacklog fills storeDir with the workload's backlog of parked
// checkpoints: abandoned detached sessions in the FileStore's
// `<token>.ckpt` layout. They are hard links to one copy of a real
// checkpoint, so seeding them costs directory entries, not data writes.
func seedBacklog(w workload, storeDir string, blob []byte) error {
	if !w.disk {
		return nil
	}
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return fmt.Errorf("seeding backlog: %w", err)
	}
	staged := filepath.Join(filepath.Dir(storeDir), "parked.ckpt")
	if err := os.WriteFile(staged, blob, 0o644); err != nil {
		return fmt.Errorf("seeding backlog: %w", err)
	}
	for i := 0; i < w.backlog; i++ {
		if err := os.Link(staged, filepath.Join(storeDir, fmt.Sprintf("parked-%05d.ckpt", i))); err != nil {
			return fmt.Errorf("seeding backlog: %w", err)
		}
	}
	return nil
}

// startLocal runs one server on a MemStore, or on a FileStore over dir.
func (st *stack) startLocal(w workload, dir string) error {
	st.own = store.NewMemStore()
	if w.disk {
		fs, err := store.NewFileStore(dir)
		if err != nil {
			return err
		}
		st.own, st.file = fs, fs
	}
	srv, err := st.startServer(st.own, nil)
	if err != nil {
		return err
	}
	st.entry = srv.Addr()
	return nil
}

// startCluster runs a store server over a MemStore, two shards reaching it
// through their own cluster-store clients, and a router over the shards.
func (st *stack) startCluster() error {
	ss, err := store.NewStoreServer(store.NewMemStore())
	if err != nil {
		return err
	}
	if err := ss.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	st.storeSrv = ss
	st.goServe(ss.Serve, ss.Close)
	var addrs []string
	for i := 0; i < 2; i++ {
		cs := store.NewClusterStore(ss.Addr(), 30*time.Second)
		st.stops = append(st.stops, cs.Close)
		srv, err := st.startServer(cs, nil)
		if err != nil {
			return err
		}
		addrs = append(addrs, srv.Addr())
	}
	rt, err := serve.NewRouter(serve.RouterConfig{Addr: "127.0.0.1:0", Shards: addrs})
	if err != nil {
		return err
	}
	if err := rt.Listen(); err != nil {
		return err
	}
	st.router = rt
	st.goServe(rt.Serve, func() error { return shutdown(rt.Shutdown) })
	st.entry = rt.Addr()
	return nil
}

func (st *stack) startServer(cs store.CheckpointStore, so *obs.ServeObs) (*serve.Server, error) {
	srv, err := serve.NewServer(serve.ServerConfig{Addr: "127.0.0.1:0", Store: cs, Obs: so})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	st.shards = append(st.shards, srv)
	st.goServe(srv.Serve, func() error { return shutdown(srv.Shutdown) })
	return srv, nil
}

// goServe runs serveFn on its own goroutine; teardown calls stop and then
// waits for serveFn to return.
func (st *stack) goServe(serveFn, stop func() error) {
	done := make(chan error, 1)
	go func() { done <- serveFn() }()
	st.stops = append(st.stops, func() error {
		return errors.Join(stop(), <-done)
	})
}

func shutdown(fn func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return fn(ctx)
}

// close stops everything the stack started, newest first, and waits for it.
func (st *stack) close() error {
	var errs []error
	for i := len(st.stops) - 1; i >= 0; i-- {
		errs = append(errs, st.stops[i]())
	}
	st.stops = nil
	return errors.Join(errs...)
}

// resumeAddr is where a detached session resumes: the same server, or on
// the routed stack the shard the ring does not place the token on, which
// makes every resume a cross-shard adoption through the shared store.
func (st *stack) resumeAddr(token string) string {
	if st.router == nil {
		return st.entry
	}
	owner := st.router.ShardFor(token)
	for _, sh := range st.shards {
		if sh.Addr() != owner {
			return sh.Addr()
		}
	}
	return owner
}

// setup generates the workload's input, seeds its backlog and starts its
// stack under dir.
func setup(w workload, seed uint64, dir string) (*input, *stack, error) {
	in, err := makeInput(w, seed)
	if err != nil {
		return nil, nil, err
	}
	storeDir := filepath.Join(dir, "store")
	if err := seedBacklog(w, storeDir, in.blobs[0]); err != nil {
		return nil, nil, err
	}
	st, err := newStack(w, storeDir)
	if err != nil {
		return nil, nil, err
	}
	return in, st, nil
}
