// Command servebench is the repository's serving benchmark. It starts the
// SCWIRE1 serving stack inside this process on loopback TCP, drives it
// closed-loop from a fixed number of client connections (each waits for its
// session's result before opening the next; the send side is paced only by
// TCP backpressure), checks every session's result fingerprint against an
// in-process reference run, and prints either the client-visible metrics
// (untraced run) or the per-layer metrics and the kernel→router ladder
// (traced run). README.md describes the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload stream-kk --seed 1 --seconds 40 --trace 0
//	bash servebench/run.sh --workload stream-kk --seed 1 --seconds 40 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when any
// session failed or returned a wrong result, and 2 when it could not run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// conns is the number of concurrent client connections: the closed loop's
// load level, one per core of the 2-core host the bounds were set on.
const conns = 2

type options struct {
	workload workload
	seed     uint64
	seconds  float64
	traced   bool
	dir      string // scratch root: stores and the span dump live under it
	setups   int    // fewest set-ups timed for setup_s (the median is reported)
}

func main() {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	var (
		name    = flag.String("workload", "stream-kk", "workload: "+strings.Join(names, ", "))
		seed    = flag.Uint64("seed", 1, "seed of the generated stream and of the algorithm's coins")
		seconds = flag.Float64("seconds", 40, "measured wall time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		dir     = flag.String("dir", ".bench_build", "scratch directory for checkpoint stores and the span dump")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	abs, err := filepath.Abs(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	opt := options{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: abs, setups: 5}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(2)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// run measures one workload. The scratch directory it works in is removed
// before it returns.
func run(opt options) (*report, error) {
	runDir := filepath.Join(opt.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rep := &report{env: stampEnv(runDir)}
	measured := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		return rep, runTraced(rep, opt, runDir, measured)
	}
	return rep, runEndToEnd(rep, opt, runDir, measured)
}
