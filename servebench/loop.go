package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamcover/internal/serve"
	"streamcover/internal/stream"
)

// clientTimeout bounds every blocking client call, so a wedged server fails
// a session instead of hanging the run.
const clientTimeout = 20 * time.Second

// tally counts sessions attempted and failed (an error, or a result whose
// fingerprint differs from the reference), keeping the first failure.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	if t.firstErr == nil {
		t.firstErr = u.firstErr
	}
}

// samples are one closed-loop window's client-side measurements, in
// milliseconds, from correct finished sessions only.
type samples struct {
	session, finish, open, detach, resume []float64
	edges                                 int64
	sessions                              int
	tally
}

func (s *samples) merge(o *samples) {
	s.session = append(s.session, o.session...)
	s.finish = append(s.finish, o.finish...)
	s.open = append(s.open, o.open...)
	s.detach = append(s.detach, o.detach...)
	s.resume = append(s.resume, o.resume...)
	s.edges += o.edges
	s.sessions += o.sessions
	s.tally.add(o.tally)
}

// client runs sessions one after another, each on fresh connections.
type client struct {
	w     workload
	in    *input
	st    *stack
	phase string // token prefix, unique per client and window
	seq   int
	tr    *tracer
}

// session runs one session — open, feed with a detach and resume at each
// cut, finish — and checks its result against the reference.
func (c *client) session(s *samples, cuts []int) {
	err := c.run(s, cuts)
	s.record(err)
}

func (c *client) run(s *samples, cuts []int) error {
	c.seq++
	token := ""
	if !c.w.mint {
		token = c.phase + "-" + strconv.Itoa(c.seq)
	}
	root := c.tr.begin("session", token, 0)
	defer c.tr.end(root)
	var cl *serve.Client
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()

	t0 := time.Now()
	cl, err := c.dial(c.st.entry, token, root)
	if err != nil {
		return err
	}
	sp := c.tr.begin("client.Hello", token, root)
	token, err = cl.Hello(token, c.in.cfg)
	c.tr.end(sp)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	c.tr.setToken(root, token)
	open := time.Since(t0)

	var detach, resume []float64
	for _, cut := range cuts {
		if err := feed(cl, c.in.edges, cut, c.tr, token, root); err != nil {
			return err
		}
		t := time.Now()
		sp := c.tr.begin("client.Detach", token, root)
		pos, err := cl.Detach()
		c.tr.end(sp)
		if err != nil {
			return fmt.Errorf("session %s: detach: %w", token, err)
		}
		detach = append(detach, ms(time.Since(t)))
		if pos != cut {
			return fmt.Errorf("session %s: detached at %d, want %d", token, pos, cut)
		}
		sp = c.tr.begin("client.Close", token, root)
		cl.Close()
		c.tr.end(sp)

		t = time.Now()
		if cl, err = c.dial(c.st.resumeAddr(token), token, root); err != nil {
			return err
		}
		sp = c.tr.begin("client.Resume", token, root)
		pos, err = cl.Resume(token, c.in.cfg)
		c.tr.end(sp)
		if err != nil {
			return fmt.Errorf("session %s: resume: %w", token, err)
		}
		resume = append(resume, ms(time.Since(t)))
		if pos != cut {
			return fmt.Errorf("session %s: resumed at %d, want %d", token, pos, cut)
		}
	}
	if err := feed(cl, c.in.edges, len(c.in.edges), c.tr, token, root); err != nil {
		return err
	}
	t := time.Now()
	sp = c.tr.begin("client.Finish", token, root)
	res, err := cl.Finish()
	c.tr.end(sp)
	finish, total := time.Since(t), time.Since(t0)
	if err != nil {
		return fmt.Errorf("session %s: finish: %w", token, err)
	}
	if err := checkResult(token, res, c.in); err != nil {
		return err
	}
	s.session = append(s.session, ms(total))
	s.finish = append(s.finish, ms(finish))
	s.open = append(s.open, ms(open))
	s.detach = append(s.detach, detach...)
	s.resume = append(s.resume, resume...)
	s.edges += int64(res.Edges)
	s.sessions++
	return nil
}

func (c *client) dial(addr, token string, parent uint64) (*serve.Client, error) {
	sp := c.tr.begin("client.Dial", token, parent)
	cl, err := serve.Dial(addr)
	c.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	cl.Timeout = clientTimeout
	return cl, nil
}

// feed sends edges from the client's position up to stop in frameEdges
// frames, then syncs them onto the wire — what serve.Feeder does, with a
// span around every client call.
func feed(cl *serve.Client, edges []stream.Edge, stop int, tr *tracer, token string, parent uint64) error {
	for pos := cl.Pos(); pos < stop; pos = cl.Pos() {
		sp := tr.begin("client.SendBatch", token, parent)
		err := cl.SendBatch(edges[pos:min(pos+frameEdges, stop)])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("session %s: sending edges at %d: %w", token, pos, err)
		}
	}
	sp := tr.begin("client.Sync", token, parent)
	err := cl.Sync()
	tr.end(sp)
	return err
}

// checkResult compares a served result with the in-process reference.
func checkResult(token string, res serve.Result, in *input) error {
	if res.Cover == nil {
		return fmt.Errorf("session %s: result without a cover", token)
	}
	if fp := res.Fingerprint(); fp != in.fp {
		return fmt.Errorf("session %s: fingerprint %016x, reference %016x", token, fp, in.fp)
	}
	return nil
}

// closedLoop runs sessions on conns connections for d: each connection
// opens its next session only after the previous one's result arrived.
// Sessions running at the deadline complete and count; the returned wall
// time runs until the last of them. trs, when non-nil, holds one tracer per
// connection.
func closedLoop(w workload, in *input, st *stack, conns int, phase string, cuts []int, d time.Duration, trs []*tracer) (*samples, time.Duration) {
	per := make([]samples, conns)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < conns; i++ {
		c := &client{w: w, in: in, st: st, phase: fmt.Sprintf("%s%d", phase, i)}
		if trs != nil {
			c.tr = trs[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.session(&per[i], cuts)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	all := &samples{}
	for i := range per {
		all.merge(&per[i])
	}
	return all, wall
}

// warmup is how long sessions run before a measured window: long enough
// for the ring and frame free-lists and the GC pacer to settle.
func warmup(d time.Duration) time.Duration { return min(d/10, time.Second) }

// pieces is the number of pieces an untraced run's measured time is cut
// into. Each piece runs the closed loop, then stops the load and runs the
// reference pipeline for one burst, so the host's speed is sampled all
// through the run (see calib.go).
const pieces = 20

// measured is an untraced run's measurements: the closed loop's samples and
// wall time, the probe sessions' samples (the closed loop's own when its
// sessions detach), and the reference pipeline's rate in each burst.
type measured struct {
	loop, probe *samples
	wall        time.Duration
	speeds      []float64
}

// measure runs the measured time d in pieces. For a workload whose sessions
// never detach, the last quarter of every piece runs probe sessions, which
// detach and resume once, so that the probe and the closed loop see the
// same host.
func measure(w workload, in *input, st *stack, d time.Duration) *measured {
	m := &measured{loop: &samples{}, probe: &samples{}}
	piece, probe := d/pieces, time.Duration(0)
	if len(in.cuts) == 0 {
		probe = piece / 4
	}
	for i := range pieces {
		s, sw := closedLoop(w, in, st, conns, fmt.Sprintf("r%d-", i), in.cuts, piece-probe, nil)
		m.loop.merge(s)
		m.wall += sw
		if probe > 0 {
			p, _ := closedLoop(w, in, st, conns, fmt.Sprintf("p%d-", i), in.ckptCuts, probe, nil)
			m.probe.merge(p)
		}
		m.speeds = append(m.speeds, calibrate(in.edges, conns, min(calBurst, piece)))
	}
	if probe == 0 {
		m.probe = m.loop
	}
	return m
}

// runEndToEnd is the untraced run: set-up timed opt.setups times, a
// warm-up, and the measured time.
func runEndToEnd(rep *report, opt options, dir string, d time.Duration) error {
	w := opt.workload
	in, st, setupS, setups, err := timedSetups(opt, dir, d/40)
	if err != nil {
		return err
	}
	defer st.close()

	warm, _ := closedLoop(w, in, st, conns, "w", in.cuts, warmup(d), nil)
	m := measure(w, in, st, d)
	s, dr, wall, speeds := m.loop, m.probe, m.wall, m.speeds
	rep.tally(warm.tally)
	rep.tally(s.tally)
	if dr != s {
		rep.tally(dr.tally)
	}
	if err := st.close(); err != nil {
		return fmt.Errorf("stopping the stack: %w", err)
	}
	for _, t := range []tally{warm.tally, s.tally, dr.tally} {
		if t.firstErr != nil {
			fmt.Fprintf(os.Stderr, "servebench: first failed session: %v\n", t.firstErr)
			break
		}
	}

	// Rates are divided by the host's speed and times multiplied by it,
	// which puts every figure at the reference speed.
	speed := mean(speeds) / calRef
	rate := float64(s.sessions) / wall.Seconds()
	rep.add("edges_per_s", rate/speed*float64(len(in.edges)), "edges/s")
	rep.add("sessions_per_s", rate/speed, "sessions/s")
	rep.addLatency("session_ms", s.session, speed)
	rep.addLatency("finish_ms", s.finish, speed)
	rep.addLatency("open_ms", s.open, speed)
	rep.addLatency("detach_ms", dr.detach, speed)
	rep.addLatency("resume_ms", dr.resume, speed)
	rep.add("setup_s", setupS*speed, "s")
	rep.add("rss_peak_mb", rssPeakMB(), "MB")
	rep.add("failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "frac")
	rep.add("host_speed", speed, "x")
	rep.add("wall.edges_per_s", rate*float64(len(in.edges)), "edges/s")
	rep.add("wall.setup_s", setupS, "s")
	rep.linef("host speed: the reference pipeline ran at %.4g edges/s, %.3fx the reference %.4g (median burst %.3fx, %d bursts of %v)",
		mean(speeds), speed, float64(calRef), median(speeds)/calRef, len(speeds), min(calBurst, d/pieces))
	if dr != s {
		rep.linef("detach_ms and resume_ms come from probe sessions, the last quarter of every piece: they detach and resume once at edge %d", in.ckptCuts[0])
	}
	rep.linef("stream edges=%d algo=%s reference_fingerprint=%016x conns=%d measured=%v closed_loop_wall=%v setups=%d",
		len(in.edges), in.cfg.Algo, in.fp, conns, d, wall.Round(time.Millisecond), setups)
	return nil
}

// timedSetups sets the workload up at least opt.setups times and until
// budget has passed: each time it generates the input, runs the reference
// and starts the stack, which on local disk opens the store over the
// backlog. The backlog is the benchmark's fixture, not the program's
// set-up, so it is seeded once, untimed. timedSetups keeps the last stack
// running, and returns the median set-up time in seconds and the number of
// set-ups.
func timedSetups(opt options, dir string, budget time.Duration) (*input, *stack, float64, int, error) {
	w := opt.workload
	in, err := makeInput(w, opt.seed)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	storeDir := filepath.Join(dir, "store")
	if err := seedBacklog(w, storeDir, in.blobs[0]); err != nil {
		return nil, nil, 0, 0, err
	}
	var times []float64
	var st *stack
	end := time.Now().Add(budget)
	for i := 0; i < opt.setups || time.Now().Before(end); i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, 0, 0, err
			}
		}
		t := time.Now()
		if in, err = makeInput(w, opt.seed); err != nil {
			return nil, nil, 0, 0, err
		}
		if st, err = newStack(w, storeDir); err != nil {
			return nil, nil, 0, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return in, st, median(times), len(times), nil
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return -1
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
