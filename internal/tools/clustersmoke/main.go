// Command clustersmoke is the `make cluster-smoke` harness and the
// repository's one multi-process check: the sharded serving tier run as
// real scrouter, scserve, scfeed and scstat processes over real TCP, with
// real signals. It builds those binaries three times — default, -race and
// -tags obsoff — and runs two legs against each build:
//
//  1. Golden leg: a store-only scrouter (shared SCSTOR1 store), one
//     scserve shard, a routing scrouter, and `scfeed -cluster` driving 64
//     sessions to completion undisturbed. The sorted token/fingerprint
//     file it writes is the golden. `scstat -json` against the live shard
//     must then report it healthy and ready with 64 finished sessions,
//     each counting the whole stream (and no rows under obsoff, which
//     compiles the session table out). Finally the shard is SIGTERMed:
//     during its -obs-hold window /readyz must answer 503 while /healthz
//     stays 200. That flip lives in scserve's signal path, which no
//     in-process test reaches.
//  2. Chaos leg: the same store-first bring-up with three shards, and
//     `scfeed -cluster` with a -kill schedule that SIGTERMs two shards
//     mid-stream. Severed sessions resume through the router and are
//     adopted by survivors from the shared store. `scstat -fleet -json`
//     must then report the killed shards down and the survivor healthy.
//
// The two fingerprint files must be byte-identical: kills, failover and
// adoption must not perturb one byte of observable output. Run it from the
// repository root; it takes no flags.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "cluster-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("cluster-smoke: PASS")
}

const (
	sessions  = 64
	opTimeout = 120 * time.Second
)

// builds are the binary flavours every leg runs against. obs marks the
// builds whose session table is compiled in.
var builds = []struct {
	name  string
	flags []string
	obs   bool
}{
	{"default", nil, true},
	{"race", []string{"-race"}, true},
	{"obsoff", []string{"-tags", "obsoff"}, false},
}

var (
	storeRe  = regexp.MustCompile(`scrouter: shared store on (\S+)`)
	routeRe  = regexp.MustCompile(`scrouter: routing on (\S+)`)
	serveRe  = regexp.MustCompile(`scserve: listening on (\S+)`)
	obsRe    = regexp.MustCompile(`obs: serving metrics on http://(\S+)/metrics`)
	killsRe  = regexp.MustCompile(`kills=(\d+)`)
	resumeRe = regexp.MustCompile(`resumes=(\d+)`)
)

func run() error {
	dir, err := os.MkdirTemp("", "clustersmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One planted stream for every build and leg.
	w := workload.Planted(xrand.New(1), 300, 4000, 8, 0)
	edges := stream.Arrange(w.Inst, stream.Random, xrand.New(2))
	var buf bytes.Buffer
	if err := stream.Encode(&buf, stream.Header{N: 300, M: 4000, E: len(edges)}, edges); err != nil {
		return err
	}
	streamFile := filepath.Join(dir, "stream.scs")
	if err := os.WriteFile(streamFile, buf.Bytes(), 0o644); err != nil {
		return err
	}

	for _, b := range builds {
		bdir := filepath.Join(dir, b.name)
		bins := map[string]string{}
		for _, name := range []string{"scserve", "scrouter", "scfeed", "scstat"} {
			bins[name] = filepath.Join(bdir, name)
			args := append([]string{"build", "-o", bins[name]}, b.flags...)
			cmd := exec.Command("go", append(args, "./cmd/"+name)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s build of %s: %w", b.name, name, err)
			}
		}
		l := leg{bins: bins, streamFile: streamFile, streamLen: len(edges), obs: b.obs}

		goldenFile := filepath.Join(bdir, "golden.txt")
		if err := l.run(goldenFile, 1, 0); err != nil {
			return fmt.Errorf("%s build: golden leg: %w", b.name, err)
		}
		fmt.Printf("cluster-smoke[%s]: golden leg ok (%d sessions, 1 shard, scstat rows, readiness flip)\n", b.name, sessions)
		chaosFile := filepath.Join(bdir, "chaos.txt")
		if err := l.run(chaosFile, 3, 2); err != nil {
			return fmt.Errorf("%s build: chaos leg: %w", b.name, err)
		}
		fmt.Printf("cluster-smoke[%s]: chaos leg ok (%d sessions, 3 shards, 2 mid-stream kills)\n", b.name, sessions)

		golden, err := os.ReadFile(goldenFile)
		if err != nil {
			return err
		}
		chaos, err := os.ReadFile(chaosFile)
		if err != nil {
			return err
		}
		if len(golden) == 0 {
			return fmt.Errorf("%s build: golden fingerprint file is empty", b.name)
		}
		if !bytes.Equal(golden, chaos) {
			return fmt.Errorf("%s build: chaos fingerprints differ from golden — kills changed observable output\n--- golden ---\n%s--- chaos ---\n%s", b.name, golden, chaos)
		}
		fmt.Printf("cluster-smoke[%s]: %d fingerprints byte-identical across golden and chaos runs\n", b.name, sessions)
	}
	return nil
}

// leg is one build's binaries and the shared stream they are fed.
type leg struct {
	bins       map[string]string
	streamFile string
	streamLen  int
	obs        bool
}

// proc is one managed child process.
type proc struct {
	cmd    *exec.Cmd
	stdout io.Reader
	stderr io.Reader
}

// start launches bin, wiring pipes for banner parsing.
func start(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	return &proc{cmd: cmd, stdout: stdout, stderr: stderr}, nil
}

// drain discards the rest of both pipes so the child never blocks on a
// full pipe buffer.
func (p *proc) drain() {
	go func() { _, _ = io.Copy(io.Discard, p.stdout) }()
	go func() { _, _ = io.Copy(io.Discard, p.stderr) }()
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// run brings up one cluster (store, shards, router) and drives it with
// scfeed -cluster into fpFile. With kills > 0 it SIGTERMs that many shards
// mid-stream and checks the fleet view; with none it checks the lone
// shard's session table and its readiness flip on SIGTERM.
func (l leg) run(fpFile string, shards, kills int) error {
	// 1. Store-only scrouter: the shared checkpoint store comes up first.
	storeProc, err := start(l.bins["scrouter"], "-store-listen", "127.0.0.1:0", "-store-backend", "mem")
	if err != nil {
		return err
	}
	defer storeProc.kill()
	storeAddr, err := awaitBanner(storeProc.stdout, storeRe)
	if err != nil {
		return fmt.Errorf("store address: %w", err)
	}
	storeProc.drain()

	// 2. Shards: each binds :0 and reports its address; all share the store.
	// The golden leg's shard holds its obs server open after a SIGTERM so
	// the not-ready window is observable; the chaos leg's victims must go
	// down for the fleet view.
	shardProcs := make([]*proc, shards)
	shardAddrs := make([]string, shards)
	obsAddrs := make([]string, shards)
	for i := range shardProcs {
		name := fmt.Sprintf("shard%d", i+1)
		args := []string{"-listen", "127.0.0.1:0",
			"-store", "cluster", "-store-addr", storeAddr,
			"-shard", name, "-obs-listen", "127.0.0.1:0"}
		if kills == 0 {
			args = append(args, "-obs-hold", opTimeout.String())
		}
		p, err := start(l.bins["scserve"], args...)
		if err != nil {
			return err
		}
		defer p.kill()
		if shardAddrs[i], err = awaitBanner(p.stdout, serveRe); err != nil {
			return fmt.Errorf("%s address: %w", name, err)
		}
		if obsAddrs[i], err = awaitBanner(p.stderr, obsRe); err != nil {
			return fmt.Errorf("%s obs address: %w", name, err)
		}
		p.drain()
		shardProcs[i] = p
	}

	// 3. Routing scrouter over the resolved shard addresses.
	routerProc, err := start(l.bins["scrouter"],
		"-listen", "127.0.0.1:0",
		"-shards", strings.Join(shardAddrs, ","),
		"-down-cooldown", "250ms")
	if err != nil {
		return err
	}
	defer routerProc.kill()
	routerAddr, err := awaitBanner(routerProc.stdout, routeRe)
	if err != nil {
		return fmt.Errorf("router address: %w", err)
	}
	routerProc.drain()

	// 4. Drive the cluster. The kill schedule SIGTERMs the last `kills`
	// shards at ~20% and ~45% of the aggregate stream — mid-stream by
	// construction, early enough that adopted sessions still have most of
	// their edges ahead of them.
	feedArgs := []string{
		"-cluster", "-addr", routerAddr, "-in", l.streamFile,
		"-algo", "kk", "-seed", "7",
		"-sessions", strconv.Itoa(sessions),
		"-fingerprints", fpFile,
	}
	if kills > 0 {
		aggregate := int64(l.streamLen) * sessions
		var spec []string
		for k := 0; k < kills; k++ {
			at := aggregate * int64(20+25*k) / 100
			victim := shardProcs[len(shardProcs)-1-k]
			spec = append(spec, fmt.Sprintf("%d:%d", at, victim.cmd.Process.Pid))
		}
		feedArgs = append(feedArgs, "-kill", strings.Join(spec, ","))
	}
	out, err := exec.Command(l.bins["scfeed"], feedArgs...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("scfeed -cluster: %v\n%s", err, clip(string(out)))
	}
	if kills == 0 {
		return l.checkShard(shardProcs[0], obsAddrs[0])
	}
	km := killsRe.FindSubmatch(out)
	if km == nil || string(km[1]) != strconv.Itoa(kills) {
		return fmt.Errorf("expected kills=%d in scfeed summary:\n%s", kills, clip(string(out)))
	}
	rm := resumeRe.FindSubmatch(out)
	if rm == nil {
		return fmt.Errorf("no resumes= tally in scfeed summary:\n%s", clip(string(out)))
	}
	if n, _ := strconv.Atoi(string(rm[1])); n == 0 {
		return fmt.Errorf("chaos leg finished with zero resumes — the kills missed every session:\n%s", clip(string(out)))
	}
	return checkFleet(l.bins["scstat"], obsAddrs, kills)
}

// status mirrors one shard's entry in scstat's -json output.
type status struct {
	Healthy  bool                 `json:"healthy"`
	Ready    bool                 `json:"ready"`
	Sessions obs.SessionsSnapshot `json:"sessions"`
	Err      string               `json:"err"`
}

// scstat runs scstat -json with args and decodes its output into v.
func scstat(bin string, v any, args ...string) error {
	out, err := exec.Command(bin, append(args, "-json")...).Output()
	if err != nil {
		return fmt.Errorf("scstat %v: %w", args, err)
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("scstat %v output: %w\n%s", args, err, out)
	}
	return nil
}

// checkShard asserts the golden leg's lone shard after its sessions
// finished: healthy and ready, one finished row per session counting the
// whole stream (none under obsoff), then /readyz down and /healthz up
// through the SIGTERM drain.
func (l leg) checkShard(shard *proc, obsAddr string) error {
	var st status
	if err := scstat(l.bins["scstat"], &st, "-addr", obsAddr); err != nil {
		return err
	}
	if !st.Healthy || !st.Ready {
		return fmt.Errorf("scstat before drain: healthy=%v ready=%v, want both true", st.Healthy, st.Ready)
	}
	rows := st.Sessions.Sessions
	if !l.obs {
		if len(rows) != 0 {
			return fmt.Errorf("obsoff build still populates /sessions: %+v", rows)
		}
	} else {
		if len(rows) != sessions {
			return fmt.Errorf("/sessions has %d rows, want %d", len(rows), sessions)
		}
		for _, r := range rows {
			if r.State != "finished" || r.Edges != int64(l.streamLen) {
				return fmt.Errorf("session row %s: state=%s edges=%d, want finished with %d edges", r.Token, r.State, r.Edges, l.streamLen)
			}
		}
	}

	if err := shard.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %w", err)
	}
	deadline := time.Now().Add(opTimeout)
	for {
		st = status{}
		err := scstat(l.bins["scstat"], &st, "-addr", obsAddr)
		if err == nil && !st.Ready {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz never flipped after SIGTERM (last: healthy=%v ready=%v err=%v)", st.Healthy, st.Ready, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !st.Healthy {
		return fmt.Errorf("draining shard should stay live (healthy), got healthy=false")
	}
	return nil
}

// checkFleet runs scstat -fleet over every shard's obs address and asserts
// the kill count is reflected: that many members unreachable, the rest
// healthy.
func checkFleet(bin string, obsAddrs []string, kills int) error {
	var sts []status
	if err := scstat(bin, &sts, "-fleet", "-addr", strings.Join(obsAddrs, ",")); err != nil {
		return err
	}
	if len(sts) != len(obsAddrs) {
		return fmt.Errorf("fleet view has %d members, want %d", len(sts), len(obsAddrs))
	}
	down, up := 0, 0
	for _, st := range sts {
		if st.Err != "" {
			down++
		} else if st.Healthy {
			up++
		}
	}
	if down != kills || up != len(obsAddrs)-kills {
		return fmt.Errorf("fleet view after %d kills: %d down, %d healthy (want %d down, %d healthy)",
			kills, down, up, kills, len(obsAddrs)-kills)
	}
	return nil
}

// awaitBanner reads r until re matches, returning the first capture group.
func awaitBanner(r io.Reader, re *regexp.Regexp) (string, error) {
	buf := make([]byte, 0, 4096)
	tmp := make([]byte, 512)
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		n, err := r.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if m := re.FindSubmatch(buf); m != nil {
			return string(m[1]), nil
		}
		if err != nil {
			return "", fmt.Errorf("process exited before its banner: %q", buf)
		}
	}
	return "", fmt.Errorf("timed out waiting for banner %v; output so far: %q", re, buf)
}

func clip(s string) string {
	if len(s) > 4000 {
		return s[:4000] + "\n... (clipped)"
	}
	return s
}
