// Command scstat is the live fleet-inspection client for scserve's
// observability surface: it polls /sessions, /healthz and /readyz on the
// address scserve printed at startup ("obs: serving metrics on ...") and
// renders the per-session telemetry table, deriving instantaneous ingest
// rates by diffing successive polls.
//
// Usage:
//
//	scstat -addr 127.0.0.1:6060              # refresh every 2s until ^C
//	scstat -addr 127.0.0.1:6060 -count 1     # one frame and exit
//	scstat -addr 127.0.0.1:6060 -json        # one-shot machine-readable dump
//	scstat -fleet -addr 127.0.0.1:6061,127.0.0.1:6062,127.0.0.1:6063
//
// -fleet merges every listed shard's telemetry into one view with a SHARD
// column, so a sharded cluster behind scrouter reads like one server; an
// unreachable shard shows as DOWN without hiding the survivors.
//
// The -json dump bundles both probe results with the /sessions snapshot so
// scripts (cluster-smoke among them) need a single invocation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/texttable"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:6060", "observability address of scserve (-obs-listen), host:port or URL; comma-separated with -fleet")
		fleet    = flag.Bool("fleet", false, "aggregate every comma-separated -addr into one fleet view with a SHARD column")
		interval = flag.Duration("interval", 2*time.Second, "poll interval between frames")
		count    = flag.Int("count", 0, "number of frames to render (0 = until interrupted)")
		jsonOut  = flag.Bool("json", false, "print one combined JSON snapshot (health, readiness, sessions) and exit")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	)
	flag.Parse()

	if *fleet || strings.Contains(*addr, ",") {
		return runFleet(*addr, *interval, *count, *jsonOut, *timeout)
	}

	cl := &statClient{base: baseURL(*addr), hc: &http.Client{Timeout: *timeout}}

	if *jsonOut {
		st, err := cl.poll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scstat: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fmt.Fprintf(os.Stderr, "scstat: %v\n", err)
			return 1
		}
		return 0
	}

	// Watch loop: remember the previous poll per trace so each frame shows
	// the instantaneous ingest rate, not just the lifetime average.
	prev := map[string]rateSample{}
	for frame := 0; *count == 0 || frame < *count; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		st, err := cl.poll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "scstat: %v\n", err)
			return 1
		}
		render(os.Stdout, st, prev)
	}
	return 0
}

// runFleet is the cluster view: poll every shard's observability address
// and render one merged session table with a SHARD column. An unreachable
// shard renders as DOWN in the summary instead of failing the poll — a
// mid-chaos fleet is exactly when the view matters most.
func runFleet(addrs string, interval time.Duration, count int, jsonOut bool, timeout time.Duration) int {
	var clients []*statClient
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			clients = append(clients, &statClient{base: baseURL(a), hc: &http.Client{Timeout: timeout}})
		}
	}
	if len(clients) == 0 {
		fmt.Fprintln(os.Stderr, "scstat: -fleet needs at least one address")
		return 2
	}

	poll := func() []status {
		sts := make([]status, len(clients))
		for i, cl := range clients {
			st, err := cl.poll()
			if err != nil {
				st.Err = err.Error()
			}
			sts[i] = st
		}
		return sts
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(poll()); err != nil {
			fmt.Fprintf(os.Stderr, "scstat: %v\n", err)
			return 1
		}
		return 0
	}

	prev := map[string]rateSample{}
	for frame := 0; count == 0 || frame < count; frame++ {
		if frame > 0 {
			time.Sleep(interval)
		}
		renderFleet(os.Stdout, poll(), prev)
	}
	return 0
}

// renderFleet prints one fleet frame: a per-shard summary, then the merged
// session table. Rate samples are keyed by shard+trace so a session that
// moves shards (adoption) restarts its rate window rather than spiking.
func renderFleet(w io.Writer, sts []status, prev map[string]rateSample) {
	up, active := 0, 0
	var at int64
	for _, st := range sts {
		if st.Err == "" && st.Healthy {
			up++
		}
		active += st.Sessions.Active
		if st.Sessions.TakenAtUnixNs > at {
			at = st.Sessions.TakenAtUnixNs
		}
	}
	fmt.Fprintf(w, "scstat: fleet %s  shards=%d up=%d active=%d\n",
		time.Unix(0, at).Format("15:04:05"), len(sts), up, active)
	for _, st := range sts {
		switch {
		case st.Err != "":
			fmt.Fprintf(w, "  %-28s DOWN (%s)\n", st.Addr, st.Err)
		case !st.Ready:
			fmt.Fprintf(w, "  %-28s DRAINING active=%d\n", st.Addr, st.Sessions.Active)
		default:
			fmt.Fprintf(w, "  %-28s ok active=%d slots=%d/%d total=%d\n",
				st.Addr, st.Sessions.Active, len(st.Sessions.Sessions), st.Sessions.Capacity, st.Sessions.SessionsTotal)
		}
	}

	tb := texttable.New("", "SHARD", "TOKEN", "TRACE", "ALGO", "STATE", "EDGES", "EDGES/S", "AGE", "IDLE")
	seen := make(map[string]bool)
	for _, st := range sts {
		shard := strings.TrimPrefix(st.Addr, "http://")
		s := st.Sessions
		for _, row := range s.Sessions {
			key := shard + "|" + row.Trace
			rate := row.EdgesPerSec
			if p, ok := prev[key]; ok && s.TakenAtUnixNs > p.atNs {
				rate = float64(row.Edges-p.edges) / (float64(s.TakenAtUnixNs-p.atNs) / 1e9)
			}
			prev[key] = rateSample{edges: row.Edges, atNs: s.TakenAtUnixNs}
			seen[key] = true
			state := row.State
			if row.Resumed {
				state += "*"
			}
			tb.AddRow(shard, row.Token, shortTrace(row.Trace), row.Algo, state,
				fmt.Sprintf("%d", row.Edges),
				fmt.Sprintf("%.0f", rate),
				fmtDur(row.AgeSeconds),
				fmtDur(row.IdleSeconds))
		}
	}
	for key := range prev {
		if !seen[key] {
			delete(prev, key)
		}
	}
	if tb.NumRows() == 0 {
		fmt.Fprintln(w, "  (no sessions)")
		return
	}
	tb.WriteTo(w)
}

// baseURL normalizes a host:port or URL flag value into an http base.
func baseURL(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}

// status is the combined one-poll view of a server, and the -json payload.
type status struct {
	Addr     string               `json:"addr"`
	Healthy  bool                 `json:"healthy"`
	Ready    bool                 `json:"ready"`
	Sessions obs.SessionsSnapshot `json:"sessions"`
	// Err records an unreachable shard in fleet polls, where one dead
	// member must not hide the rest of the cluster.
	Err string `json:"err,omitempty"`
}

type statClient struct {
	base string
	hc   *http.Client
}

// get fetches one endpoint, returning the status code and body.
func (c *statClient) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	return resp.StatusCode, body, nil
}

// poll hits all three endpoints. A failing probe endpoint is a result
// (healthy=false / ready=false), not an error; only unreachable /sessions —
// the payload scstat exists for — fails the poll.
func (c *statClient) poll() (status, error) {
	st := status{Addr: c.base}
	if code, _, err := c.get("/healthz"); err == nil && code == http.StatusOK {
		st.Healthy = true
	}
	if code, _, err := c.get("/readyz"); err == nil && code == http.StatusOK {
		st.Ready = true
	}
	code, body, err := c.get("/sessions")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("/sessions: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &st.Sessions); err != nil {
		return st, fmt.Errorf("/sessions: %w", err)
	}
	return st, nil
}

// rateSample remembers one session's edge count at a poll instant.
type rateSample struct {
	edges int64
	atNs  int64
}

// render prints one frame: a probe/summary line, then the session table.
// prev is updated in place with this frame's samples.
func render(w io.Writer, st status, prev map[string]rateSample) {
	health, ready := "ok", "ready"
	if !st.Healthy {
		health = "DOWN"
	}
	if !st.Ready {
		ready = "DRAINING"
	}
	s := st.Sessions
	fmt.Fprintf(w, "scstat: %s  health=%s  ready=%s  active=%d  slots=%d/%d  total=%d  evicted=%d\n",
		time.Unix(0, s.TakenAtUnixNs).Format("15:04:05"),
		health, ready, s.Active, len(s.Sessions), s.Capacity, s.SessionsTotal, s.EvictedActive)

	tb := texttable.New("", "TOKEN", "TRACE", "ALGO", "STATE", "EDGES", "EDGES/S", "CKPT-B", "AGE", "IDLE")
	seen := make(map[string]bool, len(s.Sessions))
	for _, row := range s.Sessions {
		rate := row.EdgesPerSec
		if p, ok := prev[row.Trace]; ok && s.TakenAtUnixNs > p.atNs {
			rate = float64(row.Edges-p.edges) / (float64(s.TakenAtUnixNs-p.atNs) / 1e9)
		}
		prev[row.Trace] = rateSample{edges: row.Edges, atNs: s.TakenAtUnixNs}
		seen[row.Trace] = true
		state := row.State
		if row.Resumed {
			state += "*" // resumed at least once
		}
		tb.AddRow(row.Token, shortTrace(row.Trace), row.Algo, state,
			fmt.Sprintf("%d", row.Edges),
			fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%d", row.CheckpointBytes),
			fmtDur(row.AgeSeconds),
			fmtDur(row.IdleSeconds))
	}
	for tr := range prev {
		if !seen[tr] {
			delete(prev, tr) // slot reused; drop the stale sample
		}
	}
	if tb.NumRows() == 0 {
		fmt.Fprintln(w, "  (no sessions)")
		return
	}
	tb.WriteTo(w)
}

// shortTrace abbreviates a 32-hex trace for the table; -json has the full ID.
func shortTrace(tr string) string {
	if len(tr) > 12 {
		return tr[:12] + ".."
	}
	return tr
}

// fmtDur renders seconds compactly (1.2s, 45s, 3m10s, 2h05m).
func fmtDur(sec float64) string {
	switch {
	case sec < 10:
		return fmt.Sprintf("%.1fs", sec)
	case sec < 120:
		return fmt.Sprintf("%.0fs", sec)
	case sec < 2*3600:
		return fmt.Sprintf("%dm%02ds", int(sec)/60, int(sec)%60)
	default:
		return fmt.Sprintf("%dh%02dm", int(sec)/3600, int(sec)%3600/60)
	}
}
