package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/serve"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/serve/store"
	"streamcover/internal/stream"
)

// runTraced is the traced run. It measures the workload's closed loop once
// untraced (the end-to-end reference of the ladder, and the runtime
// counters) and once with spans, then times each layer's public calls on
// the workload's own stream, one layer at a time: the rungs of the ladder.
func runTraced(rep *report, opt options, dir string, d time.Duration) error {
	rep.traced = true
	w := opt.workload
	in, st, err := setup(w, opt.seed, filepath.Join(dir, "setup"))
	if err != nil {
		return err
	}
	defer st.close()

	warm, _ := closedLoop(w, in, st, conns, "w", in.cuts, warmup(d), nil)
	rt0 := readRuntime()
	plain, plainWall := closedLoop(w, in, st, conns, "u", in.cuts, d/4, nil)
	rt1 := readRuntime()
	base := time.Now()
	trs := make([]*tracer, conns+1)
	for i := range trs {
		trs[i] = newTracer(base, i)
	}
	traced, tracedWall := closedLoop(w, in, st, conns, "t", in.cuts, d/4, trs[:conns])
	for _, s := range []*samples{warm, plain, traced} {
		rep.tally(s.tally)
		if s.firstErr != nil {
			fmt.Fprintf(os.Stderr, "servebench: first failed session: %v\n", s.firstErr)
		}
	}

	l := &ladder{in: in, tr: trs[conns], budget: d / 20, dir: dir}
	err = l.measure(rep, w, st)
	rep.tally(l.tally)
	if l.firstErr != nil {
		fmt.Fprintf(os.Stderr, "servebench: first failed layer call: %v\n", l.firstErr)
	}
	if err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return fmt.Errorf("stopping the stack: %w", err)
	}

	plainNs := nsPer(plainWall, int(max(plain.edges, 1)))
	tracedNs := nsPer(tracedWall, int(max(traced.edges, 1)))
	rep.add("runtime.allocs_per_session", float64(rt1.mallocs-rt0.mallocs)/float64(max(plain.sessions, 1)), "count")
	rep.add("runtime.alloc_bytes_per_edge", float64(rt1.allocBytes-rt0.allocBytes)/float64(max(plain.edges, 1)), "B")
	rep.add("runtime.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/(plainWall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac")
	rep.add("trace.overhead_frac", tracedNs/plainNs-1, "frac")

	rep.linef("ladder  rung                                         ns/edge")
	rep.linef("ladder  L0 algo ProcessBatch, one goroutine           %10.2f", l.rung[0])
	rep.linef("ladder  L1 wire decode (parseEdgesInto)               gap: no public entry point")
	rep.linef("ladder  L2 lifecycle Reserve+copy+Enqueue, Flush      %10.2f", l.rung[2])
	rep.linef("ladder  L3 frame I/O over an in-memory conn           gap: no public entry point")
	rep.linef("ladder  L4 loopback TCP, one session                  %10.2f", l.rung[4])
	rep.linef("ladder  L5 L4 through the router splice               %10.2f", l.rung[5])
	rep.linef("ladder  e2e closed loop, %d conns (wall)               %10.2f", conns, plainNs)
	rep.linef("ladder  e2e closed loop, per core (wall x GOMAXPROCS)  %10.2f", plainNs*float64(runtime.GOMAXPROCS(0)))

	spans := filepath.Join(opt.dir, "spans-"+w.name+".jsonl")
	if err := writeSpans(spans, trs); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.linef("spans written to %s", spans)
	rep.linef("span  %-34s %9s %12s %12s %12s", "name", "count", "total_ms", "self_ms", "self_us/call")
	for _, s := range selfTimes(trs) {
		rep.linef("span  %-34s %9d %12.3f %12.3f %12.3f", s.name, s.count,
			ms(s.total), ms(s.self), us(s.self)/float64(s.count))
	}
	rep.linef("stream edges=%d algo=%s reference_fingerprint=%016x conns=%d", len(in.edges), in.cfg.Algo, in.fp, conns)
	return nil
}

// rtSnap is a snapshot of the Go runtime's allocation counters and of the
// CPU time its completed GC cycles used.
type rtSnap struct {
	mallocs, allocBytes uint64
	gcCPU               float64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return rtSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64()}
}

// ladder times one layer at a time through its public calls, on the
// workload's own stream and configuration. Every call is a span on tr, and
// every result it produces is checked against the reference.
type ladder struct {
	in     *input
	tr     *tracer
	budget time.Duration // wall time spent on each measurement
	dir    string
	seq    int
	rung   [6]float64 // ns per edge of ladder rungs L0..L5 (L1, L3 unmeasured)
	tally
}

// repeat calls fn at least n times and until budget has passed, stopping at
// the first error.
func repeat(budget time.Duration, n int, fn func() error) error {
	end := time.Now().Add(budget)
	for i := 0; i < n || time.Now().Before(end); i++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

func (l *ladder) token(prefix string) string {
	l.seq++
	return fmt.Sprintf("%s-%d", prefix, l.seq)
}

// verify tallies one layer-level session result against the reference.
func (l *ladder) verify(token string, res serve.Result, err error) error {
	if err == nil {
		err = checkResult(token, res, l.in)
	}
	l.record(err)
	return err
}

func (l *ladder) measure(rep *report, w workload, st *stack) error {
	if err := l.algo(rep); err != nil {
		return fmt.Errorf("algo layer: %w", err)
	}
	if err := l.codec(rep); err != nil {
		return fmt.Errorf("checkpoint codec: %w", err)
	}
	// The wire rungs and the cluster store run on a router in front of two
	// shards sharing a store server: the routed workload's own stack, or one
	// started for the ladder.
	ls := st
	if !w.routed {
		ls = &stack{}
		if err := ls.startCluster(); err != nil {
			ls.close()
			return err
		}
		defer ls.close()
	}
	cs := store.NewClusterStore(ls.storeSrv.Addr(), 30*time.Second)
	defer cs.Close()
	// The mint path runs on the workload's own store: the cluster store on
	// the routed workload. Workloads without a local-disk store get one for
	// the file backend's row.
	mintStore := st.own
	if mintStore == nil {
		mintStore = cs
	}
	file := st.file
	if file == nil {
		var err error
		if file, err = store.NewFileStore(filepath.Join(l.dir, "ladder-store")); err != nil {
			return err
		}
	}
	if err := l.lifecycle(rep, mintStore); err != nil {
		return fmt.Errorf("lifecycle layer: %w", err)
	}
	l.stores(rep, file, cs)
	if err := l.wire(rep, ls); err != nil {
		return err
	}
	return l.obsTax(rep, w)
}

// algo is rung L0: ProcessBatch over the whole stream in client frames on
// one goroutine, then Finish.
func (l *ladder) algo(rep *report) error {
	var proc, fin []float64
	n := len(l.in.edges)
	err := repeat(l.budget, 3, func() error {
		alg, err := lifecycle.Build(l.in.cfg)
		if err != nil {
			return err
		}
		t := time.Now()
		if err := processRange(alg, l.in.edges, 0, n, l.tr); err != nil {
			return err
		}
		proc = append(proc, nsPer(time.Since(t), n))
		t = time.Now()
		sp := l.tr.begin("algo.Finish", "", 0)
		res := finishResult(alg, n)
		l.tr.end(sp)
		fin = append(fin, us(time.Since(t)))
		return l.verify("algo", res, nil)
	})
	l.rung[0] = median(proc)
	rep.add("algo.process_ns_per_edge", l.rung[0], "ns")
	rep.add("algo.finish_us", median(fin), "us")
	rep.add("algo.state_words", float64(l.in.ref.Space.State), "count")
	return err
}

// codec times the SCCKPT1 encode of the algorithm's state at each of the
// workload's checkpoint cuts, and its decode into a fresh instance.
func (l *ladder) codec(rep *report) error {
	var enc, dec, size []float64
	err := repeat(l.budget, 2, func() error {
		alg, err := lifecycle.Build(l.in.cfg)
		if err != nil {
			return err
		}
		pos := 0
		for _, cut := range l.in.ckptCuts {
			if err := processRange(alg, l.in.edges, pos, cut, nil); err != nil {
				return err
			}
			pos = cut
			var buf bytes.Buffer
			trace := obs.NewTraceID()
			t := time.Now()
			sp := l.tr.begin("stream.WriteCheckpointTraced", "", 0)
			err := stream.WriteCheckpointTraced(&buf, cut, trace, alg)
			l.tr.end(sp)
			enc = append(enc, us(time.Since(t)))
			if err != nil {
				return err
			}
			fresh, err := lifecycle.Build(l.in.cfg)
			if err != nil {
				return err
			}
			t = time.Now()
			sp = l.tr.begin("stream.ReadCheckpointTraced", "", 0)
			got, gotTrace, err := stream.ReadCheckpointTraced(bytes.NewReader(buf.Bytes()), fresh)
			l.tr.end(sp)
			dec = append(dec, us(time.Since(t)))
			if err != nil {
				return err
			}
			if got != cut || gotTrace != trace {
				return fmt.Errorf("checkpoint decoded at %d with trace %v, want %d and %v", got, gotTrace, cut, trace)
			}
			size = append(size, float64(buf.Len()))
		}
		return nil
	})
	rep.add("stream.ckpt_encode_us", median(enc), "us")
	rep.add("stream.ckpt_decode_us", median(dec), "us")
	rep.add("stream.ckpt_bytes", median(size), "count")
	return err
}

// lifecycle is rung L2: a Manager over a MemStore with no socket, fed the
// way the transport feeds it. mintStore is the workload's own store, on
// which the empty-token (minting) open is timed.
func (l *ladder) lifecycle(rep *report, mintStore store.CheckpointStore) error {
	m, err := lifecycle.NewManager(store.NewMemStore(), nil)
	if err != nil {
		return err
	}
	n := len(l.in.edges)
	var open, ingest, wait, finish, detach, resume, mint []float64
	err = repeat(l.budget, 3, func() error {
		tok := l.token("l2")
		t := time.Now()
		sp := l.tr.begin("lifecycle.Open", tok, 0)
		s, err := m.Open(tok, obs.TraceID{}, l.in.cfg)
		l.tr.end(sp)
		open = append(open, us(time.Since(t)))
		if err != nil {
			return l.verify(tok, serve.Result{}, err)
		}
		t = time.Now()
		waited, err := l.ingest(s, 0, n)
		ingest = append(ingest, nsPer(time.Since(t), n))
		wait = append(wait, nsPer(waited, n))
		if err != nil {
			return l.verify(tok, serve.Result{}, err)
		}
		t = time.Now()
		sp = l.tr.begin("lifecycle.Finish", tok, 0)
		res, err := m.Finish(s)
		l.tr.end(sp)
		finish = append(finish, us(time.Since(t)))
		return l.verify(tok, res, err)
	})
	if err != nil {
		return err
	}
	err = repeat(l.budget, 2, func() error {
		tok := l.token("l2d")
		s, err := m.Open(tok, obs.TraceID{}, l.in.cfg)
		if err != nil {
			return l.verify(tok, serve.Result{}, err)
		}
		pos := 0
		for _, cut := range l.in.ckptCuts {
			if _, err := l.ingest(s, pos, cut); err != nil {
				return l.verify(tok, serve.Result{}, err)
			}
			pos = cut
			t := time.Now()
			sp := l.tr.begin("lifecycle.Detach", tok, 0)
			_, err := m.Detach(s, "bench")
			l.tr.end(sp)
			detach = append(detach, us(time.Since(t)))
			if err != nil {
				return l.verify(tok, serve.Result{}, err)
			}
			t = time.Now()
			sp = l.tr.begin("lifecycle.Resume", tok, 0)
			var at int
			s, at, err = m.Resume(tok, obs.TraceID{}, l.in.cfg)
			l.tr.end(sp)
			resume = append(resume, us(time.Since(t)))
			if err == nil && at != cut {
				err = fmt.Errorf("resumed at %d, want %d", at, cut)
			}
			if err != nil {
				return l.verify(tok, serve.Result{}, err)
			}
		}
		if _, err := l.ingest(s, pos, n); err != nil {
			return l.verify(tok, serve.Result{}, err)
		}
		res, err := m.Finish(s)
		return l.verify(tok, res, err)
	})
	if err != nil {
		return err
	}
	// The mint path: an empty-token open lists the store and reserves the
	// minted token in it. The session is parked and its checkpoint deleted
	// again, untimed, so the store keeps its backlog size.
	mm, err := lifecycle.NewManager(mintStore, nil)
	if err != nil {
		return err
	}
	err = repeat(l.budget, 3, func() error {
		t := time.Now()
		sp := l.tr.begin("lifecycle.Open(mint)", "", 0)
		s, err := mm.Open("", obs.TraceID{}, l.in.cfg)
		l.tr.end(sp)
		mint = append(mint, us(time.Since(t)))
		if err != nil {
			return err
		}
		if _, err := mm.Detach(s, "bench"); err != nil {
			return err
		}
		return mintStore.Delete(s.Token())
	})
	if err != nil {
		return err
	}
	l.rung[2] = median(ingest)
	rep.add("lifecycle.open_us", median(open), "us")
	rep.add("lifecycle.mint_open_us", median(mint), "us")
	rep.add("lifecycle.ingest_ns_per_edge", l.rung[2], "ns")
	rep.add("lifecycle.reserve_wait_ns_per_edge", median(wait), "ns")
	rep.add("lifecycle.handoff_ns_per_edge", l.rung[2]-l.rung[0], "ns")
	rep.add("lifecycle.detach_us", median(detach), "us")
	rep.add("lifecycle.resume_us", median(resume), "us")
	rep.add("lifecycle.finish_us", median(finish), "us")
	return nil
}

// ingest feeds edges[from:to] into s as the transport does — Reserve a
// ring buffer, copy a frame into it, Enqueue — then Flushes, and returns the
// time spent blocked in Reserve.
func (l *ladder) ingest(s *lifecycle.Session, from, to int) (time.Duration, error) {
	var waited time.Duration
	tok := s.Token()
	for pos := from; pos < to; pos += frameEdges {
		t := time.Now()
		sp := l.tr.begin("lifecycle.Reserve", tok, 0)
		buf := s.Reserve()
		l.tr.end(sp)
		waited += time.Since(t)
		k := copy(buf, l.in.edges[pos:min(pos+frameEdges, to)])
		sp = l.tr.begin("lifecycle.Enqueue", tok, 0)
		s.Enqueue(k)
		l.tr.end(sp)
	}
	sp := l.tr.begin("lifecycle.Flush", tok, 0)
	at, err := s.Flush()
	l.tr.end(sp)
	if err == nil && at != to {
		err = fmt.Errorf("flushed at %d, want %d", at, to)
	}
	return waited, err
}

// reservingStore is a checkpoint store with the mint path's Reserve; every
// shipped backend has it.
type reservingStore interface {
	store.CheckpointStore
	Reserve(token string) (bool, error)
}

// stores times each backend's calls fed the workload's real checkpoint
// blobs, and List on the workload's local-disk store at its backlog.
// Failed calls are counted in store.errors.
func (l *ladder) stores(rep *report, file *store.FileStore, cluster *store.ClusterStore) {
	errs := 0
	fail := func(err error) {
		if err != nil {
			errs++
		}
	}
	for _, b := range []struct {
		name string
		st   reservingStore
	}{{"file", file}, {"mem", store.NewMemStore()}, {"cluster", cluster}} {
		var put, get, del, res []float64
		timed := func(xs *[]float64, op, tok string, fn func() error) {
			t := time.Now()
			sp := l.tr.begin("store."+b.name+"."+op, tok, 0)
			err := fn()
			l.tr.end(sp)
			*xs = append(*xs, us(time.Since(t)))
			fail(err)
		}
		repeat(l.budget, 3, func() error {
			for _, blob := range l.in.blobs {
				tok := l.token("ls")
				timed(&put, "Put", tok, func() error {
					n, err := b.st.Put(tok, blob)
					if err == nil && n != len(blob) {
						err = fmt.Errorf("put %d of %d bytes", n, len(blob))
					}
					return err
				})
				timed(&get, "Get", tok, func() error {
					got, err := b.st.Get(tok)
					if err == nil && !bytes.Equal(got, blob) {
						err = errors.New("get returned other bytes")
					}
					return err
				})
				timed(&del, "Delete", tok, func() error { return b.st.Delete(tok) })
				timed(&res, "Reserve", tok, func() error {
					won, err := b.st.Reserve(tok)
					if err == nil && !won {
						err = errors.New("reserve of a free token lost")
					}
					return err
				})
				fail(b.st.Delete(tok))
			}
			return nil
		})
		rep.add("store."+b.name+".put_us", median(put), "us")
		rep.add("store."+b.name+".get_us", median(get), "us")
		rep.add("store."+b.name+".delete_us", median(del), "us")
		rep.add("store."+b.name+".reserve_us", median(res), "us")
	}
	var list []float64
	repeat(l.budget, 3, func() error {
		t := time.Now()
		sp := l.tr.begin("store.file.List", "", 0)
		_, err := file.List()
		l.tr.end(sp)
		list = append(list, ms(time.Since(t)))
		fail(err)
		return nil
	})
	rep.add("store.file.list_ms", median(list), "ms")
	rep.add("store.errors", float64(errs), "count")
}

// wireRun is one session's transport timings.
type wireRun struct {
	dial, hello time.Duration
	rtt         []float64 // idle-session flush round trips, us
	sendNs      float64   // feed + flush, per edge
}

// wire is rungs L4 and L5: one session at a time over loopback TCP, direct
// to the shard the ring places its token on, then the same through the
// router, alternating. It also times ring placement.
func (l *ladder) wire(rep *report, ls *stack) error {
	var dial, hello, rtt, send, dOpen, rOpen, rSend []float64
	errs := 0
	err := repeat(l.budget*2, 3, func() error {
		tok := l.token("l4")
		d, err := l.wireSession(ls.router.ShardFor(tok), tok)
		if err != nil {
			errs++
			return err
		}
		dial = append(dial, us(d.dial))
		hello = append(hello, us(d.hello))
		dOpen = append(dOpen, us(d.dial+d.hello))
		rtt = append(rtt, d.rtt...)
		send = append(send, d.sendNs)
		tok = l.token("l5")
		r, err := l.wireSession(ls.entry, tok)
		if err != nil {
			errs++
			return err
		}
		rOpen = append(rOpen, us(r.dial+r.hello))
		rSend = append(rSend, r.sendNs)
		return nil
	})
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	l.rung[4], l.rung[5] = median(send), median(rSend)
	rep.add("transport.dial_us", median(dial), "us")
	rep.add("transport.hello_us", median(hello), "us")
	rep.add("transport.flush_rtt_us", median(rtt), "us")
	rep.add("transport.send_ns_per_edge", l.rung[4], "ns")
	rep.add("transport.self_ns_per_edge", l.rung[4]-l.rung[2], "ns")
	rep.add("transport.errors", float64(errs), "count")
	rep.add("router.send_ns_per_edge", l.rung[5], "ns")
	rep.add("router.hop_ns_per_edge", l.rung[5]-l.rung[4], "ns")
	rep.add("router.hello_extra_us", median(rOpen)-median(dOpen), "us")

	rg := ls.router.Ring()
	toks := make([]string, 256)
	for i := range toks {
		toks[i] = fmt.Sprintf("owner-%d", i)
	}
	const calls = 20000
	var owners []float64
	for r := 0; r < 5; r++ {
		sp := l.tr.begin("ring.Owners x20000", "", 0)
		t := time.Now()
		for i := 0; i < calls; i++ {
			ownersSink = rg.Owners(toks[i&255], 2)
		}
		owners = append(owners, nsPer(time.Since(t), calls))
		l.tr.end(sp)
	}
	rep.add("ring.owners_ns", median(owners), "ns")
	return nil
}

var ownersSink []string

// wireSession opens a session at addr, times three flushes of the idle
// session, feeds the stream and flushes (everything processed), then
// finishes and checks the result.
func (l *ladder) wireSession(addr, tok string) (wireRun, error) {
	var r wireRun
	root := l.tr.begin("session", tok, 0)
	defer l.tr.end(root)
	t := time.Now()
	sp := l.tr.begin("client.Dial", tok, root)
	c, err := serve.Dial(addr)
	l.tr.end(sp)
	r.dial = time.Since(t)
	if err != nil {
		return r, l.verify(tok, serve.Result{}, err)
	}
	defer c.Close()
	c.Timeout = clientTimeout
	t = time.Now()
	sp = l.tr.begin("client.Hello", tok, root)
	_, err = c.Hello(tok, l.in.cfg)
	l.tr.end(sp)
	r.hello = time.Since(t)
	if err != nil {
		return r, l.verify(tok, serve.Result{}, err)
	}
	for i := 0; i < 3; i++ {
		t = time.Now()
		sp = l.tr.begin("client.Flush", tok, root)
		_, err = c.Flush()
		l.tr.end(sp)
		r.rtt = append(r.rtt, us(time.Since(t)))
		if err != nil {
			return r, l.verify(tok, serve.Result{}, err)
		}
	}
	n := len(l.in.edges)
	t = time.Now()
	err = feed(c, l.in.edges, n, l.tr, tok, root)
	if err == nil {
		sp = l.tr.begin("client.Flush", tok, root)
		var at int
		at, err = c.Flush()
		l.tr.end(sp)
		if err == nil && at != n {
			err = fmt.Errorf("flushed at %d, want %d", at, n)
		}
	}
	r.sendNs = nsPer(time.Since(t), n)
	if err != nil {
		return r, l.verify(tok, serve.Result{}, err)
	}
	sp = l.tr.begin("client.Finish", tok, root)
	res, err := c.Finish()
	l.tr.end(sp)
	return r, l.verify(tok, res, err)
}

// obsTax runs whole sessions (hello, feed, finish) alternately against a
// server with no observability and one with a hub's full serving surface
// attached, and reports the relative slowdown of the median session.
func (l *ladder) obsTax(rep *report, w workload) error {
	st := &stack{}
	defer st.close()
	off, err := st.startServer(store.NewMemStore(), nil)
	if err != nil {
		return err
	}
	on, err := st.startServer(store.NewMemStore(), obs.NewHub(1024).Serve())
	if err != nil {
		return err
	}
	w.mint = false
	cOff := &client{w: w, in: l.in, st: &stack{entry: off.Addr()}, phase: "obs-off", tr: l.tr}
	cOn := &client{w: w, in: l.in, st: &stack{entry: on.Addr()}, phase: "obs-on", tr: l.tr}
	var sOff, sOn samples
	repeat(l.budget, 4, func() error {
		cOff.session(&sOff, nil)
		cOn.session(&sOn, nil)
		return nil
	})
	l.tally.add(sOff.tally)
	l.tally.add(sOn.tally)
	if sOff.failed+sOn.failed > 0 {
		return fmt.Errorf("obs tax sessions: %w", errors.Join(sOff.firstErr, sOn.firstErr))
	}
	rep.add("obs.tax_frac", median(sOn.session)/median(sOff.session)-1, "frac")
	return nil
}
