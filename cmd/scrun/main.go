// Command scrun replays a stream file through one of the streaming
// algorithms, verifies the output cover against the reconstructed instance,
// and reports cover size, approximation ratio versus offline greedy, and
// peak space.
//
// Usage:
//
//	scrun -in stream.scs -algo kk
//	scrun -in stream.scs -algo alg2 -alpha 64 -copies 8
//	scrun -in stream.scs -algo alg1
//	scrun -in stream.scs -algo es -alpha 8
//	scrun -in stream.scs -algo multipass -budget 100
//	scrun -in stream.scs -algo fractional
//	scrun -in stream.scs -algo storeall
//
// Checkpoint/resume (kk, alg1, alg2, es):
//
//	scrun -in stream.scs -algo kk -checkpoint-every 100000
//	scrun -in stream.scs -algo kk -checkpoint-every 100000 -stop-after 250000
//	scrun -in stream.scs -algo kk -resume
package main

import (
	"flag"
	"fmt"
	"os"

	"streamcover/internal/cli"
)

func main() { os.Exit(run()) }

func run() int {
	var opt cli.ReplayOptions
	flag.StringVar(&opt.In, "in", "stream.scs", "stream file from scgen")
	flag.StringVar(&opt.Algo, "algo", "kk", "algorithm: kk|alg1|alg2|es|storeall|multipass|fractional")
	flag.Float64Var(&opt.Alpha, "alpha", 0, "approximation target for alg2/es (0 = 2√n)")
	flag.Uint64Var(&opt.Seed, "seed", 1, "random seed")
	flag.IntVar(&opt.Budget, "budget", 64, "per-round element sample budget for multipass")
	flag.IntVar(&opt.Copies, "copies", 1, "ensemble copies (kk|alg1|alg2|es), seeded as a served session's")
	flag.IntVar(&opt.CheckpointEvery, "checkpoint-every", 0, "write a checkpoint every N edges (0 = off)")
	flag.StringVar(&opt.CheckpointPath, "checkpoint", "", "checkpoint file (default <in>.ckpt)")
	flag.BoolVar(&opt.Resume, "resume", false, "restore state from the checkpoint file and continue")
	flag.IntVar(&opt.StopAfter, "stop-after", 0, "kill the run after N edges without finishing (needs -checkpoint-every)")
	obsOpt := cli.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	session, err := cli.StartObs(*obsOpt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scrun: %v\n", err)
		return 1
	}
	defer func() {
		if err := session.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "scrun: %v\n", err)
		}
	}()

	if err := cli.Replay(opt, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "scrun: %v\n", err)
		return 1
	}
	return 0
}
