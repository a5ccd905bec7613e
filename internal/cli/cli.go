// Package cli implements the logic behind the command-line tools (scgen,
// scrun) as testable functions: the main packages only parse flags and
// delegate here.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"streamcover/internal/fractional"
	"streamcover/internal/multipass"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/setcover"
	"streamcover/internal/snap"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// GenerateOptions configure Generate (one field per scgen flag).
type GenerateOptions struct {
	Workload string // planted|uniform|zipf|domset|heavy|quadratic
	N, M     int
	Opt      int     // planted/quadratic
	Noise    int     // planted (0 = auto)
	MinSize  int     // uniform
	MaxSize  int     // uniform
	Mean     int     // zipf
	S        float64 // zipf exponent
	P        float64 // domset edge probability
	Heavy    int     // heavy element count
	Factor   int     // quadratic m = factor·n²
	Order    string
	Seed     uint64
	Out      string
}

// Generate builds the requested workload, arranges its stream and writes
// the stream file, printing a one-line summary to stdout.
func Generate(opt GenerateOptions, stdout io.Writer) error {
	rng := xrand.New(opt.Seed)
	w, err := buildWorkload(opt, rng)
	if err != nil {
		return err
	}
	order, err := stream.ParseOrder(opt.Order)
	if err != nil {
		return err
	}
	edges := stream.Arrange(w.Inst, order, rng.Split())

	f, err := os.Create(opt.Out)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	defer f.Close()
	hdr := stream.Header{N: w.Inst.UniverseSize(), M: w.Inst.NumSets(), E: len(edges)}
	if err := stream.Encode(f, hdr, edges); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %s: %s, order=%s", opt.Out, w.Inst.Stats(), order)
	if w.PlantedOPT > 0 {
		fmt.Fprintf(stdout, ", planted OPT=%d", w.PlantedOPT)
	}
	fmt.Fprintln(stdout)
	return nil
}

// buildWorkload dispatches to the generators, converting their
// invalid-parameter panics into errors at the tool boundary.
func buildWorkload(opt GenerateOptions, rng *xrand.Rand) (w workload.Workload, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("workload: %v", r)
		}
	}()
	switch opt.Workload {
	case "planted":
		return workload.Planted(rng.Split(), opt.N, opt.M, opt.Opt, opt.Noise), nil
	case "uniform":
		return workload.UniformRandom(rng.Split(), opt.N, opt.M, opt.MinSize, opt.MaxSize), nil
	case "zipf":
		return workload.ZipfSkewed(rng.Split(), opt.N, opt.M, opt.Mean, opt.S), nil
	case "domset":
		return workload.DominatingSet(rng.Split(), opt.N, opt.P), nil
	case "heavy":
		return workload.HeavyElements(rng.Split(), opt.N, opt.M, opt.Heavy, 4), nil
	case "quadratic":
		return workload.QuadraticPlanted(rng.Split(), opt.N, opt.Opt, opt.Factor), nil
	default:
		return workload.Workload{}, fmt.Errorf("unknown workload %q", opt.Workload)
	}
}

// ReplayOptions configure Replay (one field per scrun flag).
type ReplayOptions struct {
	In     string
	Algo   string // kk|alg1|alg2|es|storeall|multipass|fractional
	Alpha  float64
	Seed   uint64
	Budget int // multipass per-round element sample budget
	// Copies > 1 runs an ensemble of that many copies of kk, alg1, alg2
	// or es, seeded as a served session with the same Copies is.
	Copies int

	// CheckpointEvery > 0 writes a checkpoint of the algorithm state every
	// that many edges (streaming algorithms only — not storeall, multipass
	// or fractional).
	CheckpointEvery int
	// CheckpointPath overrides the checkpoint file (default In + ".ckpt").
	CheckpointPath string
	// Resume restores the algorithm from the checkpoint file and continues
	// the stream from the recorded position.
	Resume bool
	// StopAfter > 0 kills the run after that many edges without finishing —
	// the kill half of a kill-and-resume exercise. Requires CheckpointEvery.
	StopAfter int
}

// Replay decodes a stream file, runs the chosen algorithm, verifies the
// output, and prints the report. kk, alg1, alg2 and es are built by the
// served algorithm table (lifecycle.Build), so a run reports what a served
// session with the same seed and copies would.
func Replay(opt ReplayOptions, stdout io.Writer) error {
	f, err := os.Open(opt.In)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	hdr, edges, err := stream.Decode(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	inst, err := stream.InstanceFromEdges(hdr, edges)
	if err != nil {
		return fmt.Errorf("rebuild instance: %w", err)
	}
	greedy, err := setcover.GreedySize(inst)
	if err != nil {
		return fmt.Errorf("greedy reference: %w", err)
	}

	header := func(extra string) {
		fmt.Fprintf(stdout, "stream    n=%d m=%d N=%d (%s)\n", hdr.N, hdr.M, hdr.E, opt.In)
		fmt.Fprintf(stdout, "algorithm %s%s\n", opt.Algo, extra)
	}
	report := func(cov *setcover.Cover, extra string) error {
		if err := cov.Verify(inst); err != nil {
			return fmt.Errorf("output cover invalid: %w", err)
		}
		header(extra)
		fmt.Fprintf(stdout, "cover     %d sets (offline greedy: %d, ratio vs greedy: %.2f)\n",
			cov.Size(), greedy, float64(cov.Size())/float64(greedy))
		return nil
	}

	// Every served algorithm checkpoints; the others cannot.
	served := slices.Contains(lifecycle.Algorithms(), opt.Algo)
	if (opt.CheckpointEvery > 0 || opt.Resume || opt.StopAfter > 0) && !served {
		return fmt.Errorf("algorithm %q does not support checkpoint/resume", opt.Algo)
	}
	if opt.StopAfter > 0 && opt.CheckpointEvery <= 0 {
		return fmt.Errorf("-stop-after requires -checkpoint-every (nothing durable would survive the kill)")
	}

	rng := xrand.New(opt.Seed)
	switch opt.Algo {
	case "multipass":
		budget := opt.Budget
		if budget < 1 {
			budget = 64
		}
		mpRes, err := multipass.Run(hdr.N, hdr.M, stream.NewSlice(edges),
			multipass.Options{SampleBudget: budget}, rng)
		if err != nil {
			return fmt.Errorf("multipass: %w", err)
		}
		if err := report(mpRes.Cover, fmt.Sprintf(" (budget=%d): %d passes", budget, mpRes.Passes)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "space     %v\n", mpRes.Space)
		return nil

	case "fractional":
		sol, err := fractional.Solve(hdr.N, hdr.M, stream.NewSlice(edges), fractional.Options{Delta: 0.5})
		if err != nil {
			return fmt.Errorf("fractional: %w", err)
		}
		cov, err := fractional.Round(hdr.N, hdr.M, stream.NewSlice(edges), sol, rng)
		if err != nil {
			return fmt.Errorf("fractional round: %w", err)
		}
		if err := report(cov, fmt.Sprintf(" MWU: LP value %.2f in %d passes", sol.Value, sol.Passes)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "space     %v\n", sol.Space)
		return nil
	}

	cfg := lifecycle.Config{
		Algo: opt.Algo, N: hdr.N, M: hdr.M, StreamLen: hdr.E,
		Seed: opt.Seed, Copies: opt.Copies, Alpha: opt.Alpha,
	}
	var alg stream.Algorithm
	switch {
	case served:
		if alg, err = lifecycle.Build(cfg); err != nil {
			return err
		}
	case opt.Algo == "storeall":
		alg = stream.NewStoreAll(hdr.N, hdr.M)
	default:
		return fmt.Errorf("unknown algorithm %q", opt.Algo)
	}

	ckPath := opt.CheckpointPath
	if ckPath == "" {
		ckPath = opt.In + ".ckpt"
	}
	policy := stream.CheckpointPolicy{Every: opt.CheckpointEvery, Path: ckPath}

	from := 0
	if opt.Resume {
		from, err = stream.ReadCheckpointFile(ckPath, alg)
		if err != nil {
			// Keep the typed chain intact (callers match snap's
			// sentinels) while making the mismatch case actionable:
			// the usual cause is resuming with different -algo,
			// -copies, -alpha or input than the checkpointing run.
			if errors.Is(err, snap.ErrMismatch) {
				return fmt.Errorf("resume from %s: %w (the checkpoint was written by a different algorithm, copy count or instance shape; rerun with the original -algo/-copies/-alpha and input, or remove the checkpoint to start over)", ckPath, err)
			}
			return fmt.Errorf("resume from %s: %w", ckPath, err)
		}
		fmt.Fprintf(stdout, "resumed   %s at edge %d\n", ckPath, from)
	}

	params := fmt.Sprintf(" (alpha=%.0f where applicable, seed=%d)", cfg.ResolvedAlpha(), opt.Seed)
	if opt.StopAfter > 0 {
		pos, err := stream.DrivePartial(alg, stream.NewSlice(edges), policy, opt.StopAfter)
		if err != nil {
			return fmt.Errorf("partial run: %w", err)
		}
		header(params)
		fmt.Fprintf(stdout, "stopped   at edge %d of %d; last checkpoint %s at edge %d\n",
			pos, hdr.E, ckPath, pos/opt.CheckpointEvery*opt.CheckpointEvery)
		return nil
	}

	var res stream.Result
	if policy.Every > 0 || from > 0 {
		res, err = stream.RunCheckpointedFrom(alg, stream.NewSlice(edges), policy, from)
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
	} else {
		res = stream.RunEdges(alg, edges)
	}
	if err := report(res.Cover, params); err != nil {
		return err
	}
	if policy.Every > 0 {
		fmt.Fprintf(stdout, "ckpt      every %d edges -> %s\n", policy.Every, ckPath)
	}
	fmt.Fprintf(stdout, "space     %v\n", res.Space)
	return nil
}
