// Command sctrace replays a stream file through an algorithm with
// checkpoint instrumentation and emits the coverage/state trajectory as CSV
// (stream position, witnessed elements, state words) — the raw data behind
// the E-CURVE experiment, ready for external plotting. With -decisions it
// instead reads back a decision-trace file written by another tool's
// -trace-out flag (SCTRACE1 format) and emits the events as CSV.
//
// Usage:
//
//	sctrace -in stream.scs -algo alg1 -points 50 > curve.csv
//	sctrace -decisions run.sctrace > decisions.csv
//	sctrace -state run.ckpt
//
// With -state it inspects a checkpoint file (SCCKPT1, from scrun's
// -checkpoint-every flag): verifies its checksum and prints the stream
// position, embedded algorithm tag, state version and payload size.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"streamcover/internal/obs"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/stream"
)

func main() {
	var (
		in        = flag.String("in", "stream.scs", "stream file from scgen")
		algo      = flag.String("algo", "alg1", "algorithm: "+strings.Join(lifecycle.Algorithms(), "|"))
		alpha     = flag.Float64("alpha", 0, "approximation target for alg2/es (0 = 2√n)")
		points    = flag.Int("points", 50, "number of checkpoints")
		seed      = flag.Uint64("seed", 1, "random seed")
		decisions = flag.String("decisions", "", "read back a decision trace (SCTRACE1, from -trace-out) and emit it as CSV instead of replaying a stream")
		state     = flag.String("state", "", "inspect a checkpoint file (SCCKPT1, from scrun -checkpoint-every) instead of replaying a stream")
	)
	flag.Parse()

	if *decisions != "" {
		dumpDecisions(*decisions)
		return
	}
	if *state != "" {
		inspectState(*state)
		return
	}

	f, err := os.Open(*in)
	if err != nil {
		fatalf("open: %v", err)
	}
	hdr, edges, err := stream.Decode(f)
	f.Close()
	if err != nil {
		fatalf("decode: %v", err)
	}

	alg, err := lifecycle.Build(lifecycle.Config{
		Algo: *algo, N: hdr.N, M: hdr.M, StreamLen: hdr.E, Seed: *seed, Alpha: *alpha,
	})
	if err != nil {
		fatalf("%v", err)
	}

	every := hdr.E / *points
	if every < 1 {
		every = 1
	}
	res, traj := stream.RunInstrumented(alg, stream.NewSlice(edges), every)

	w := csv.NewWriter(os.Stdout)
	if err := w.Write([]string{"pos", "covered", "covered_frac", "state_words"}); err != nil {
		fatalf("write: %v", err)
	}
	for _, p := range traj {
		rec := []string{
			strconv.Itoa(p.Pos),
			strconv.Itoa(p.Covered),
			fmt.Sprintf("%.4f", float64(p.Covered)/float64(hdr.N)),
			strconv.FormatInt(p.StateWords, 10),
		}
		if err := w.Write(rec); err != nil {
			fatalf("write: %v", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fatalf("flush: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sctrace: %s on n=%d m=%d N=%d -> cover %d sets, %d checkpoints\n",
		*algo, hdr.N, hdr.M, hdr.E, res.Cover.Size(), len(traj))
}

// inspectState verifies a checkpoint file and prints its envelope.
func inspectState(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open: %v", err)
	}
	defer f.Close()
	info, err := stream.InspectCheckpoint(f)
	if err != nil {
		fatalf("inspect %s: %v", path, err)
	}
	fmt.Printf("checkpoint %s\n", path)
	fmt.Printf("  position  %d edges\n", info.Pos)
	fmt.Printf("  algorithm %s (state v%d)\n", info.Algo, info.Version)
	fmt.Printf("  snapshot  %d bytes\n", info.Bytes)
}

// dumpDecisions reads an SCTRACE1 decision trace and writes it to stdout as
// CSV with symbolic algorithm and event-kind names.
func dumpDecisions(path string) {
	events, err := obs.ReadTraceFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	w := csv.NewWriter(os.Stdout)
	if err := w.Write([]string{"seq", "pos", "algo", "kind", "a", "b", "c"}); err != nil {
		fatalf("write: %v", err)
	}
	for _, e := range events {
		rec := []string{
			strconv.FormatUint(e.Seq, 10),
			strconv.FormatInt(e.Pos, 10),
			e.Algo.String(),
			e.Kind.String(),
			strconv.FormatInt(e.A, 10),
			strconv.FormatInt(e.B, 10),
			strconv.FormatInt(e.C, 10),
		}
		if err := w.Write(rec); err != nil {
			fatalf("write: %v", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fatalf("flush: %v", err)
	}
	fmt.Fprintf(os.Stderr, "sctrace: read %d decision events from %s\n", len(events), path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sctrace: "+format+"\n", args...)
	os.Exit(1)
}
