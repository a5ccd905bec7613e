package cli

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"streamcover/internal/sched"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/setcover"
	"streamcover/internal/stats"
	"streamcover/internal/stream"
	"streamcover/internal/texttable"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// SweepOptions configure Sweep: the full (algorithm × n × m × order) grid
// on planted workloads.
type SweepOptions struct {
	Algos  []string // any of kk|alg1|alg2|es|storeall
	Ns     []int
	Ms     []int
	Orders []string
	Opt    int     // planted optimum per instance
	Alpha  float64 // 0 = 2√n per instance (alg2/es)
	Reps   int
	Seed   uint64
	CSV    bool // emit CSV instead of an aligned table
	// Workers is the scheduler's goroutine count: grid cells are sharded
	// across this many workers (0 = GOMAXPROCS). Cell seeds derive from
	// grid coordinates alone, so the output is byte-identical for every
	// worker count; 1 reproduces the sequential schedule exactly.
	Workers int
	// SolverWorkers is the goroutine count for the offline greedy reference
	// solver each cell runs for its greedy column (0 = GOMAXPROCS,
	// 1 = sequential). The solver's max-gain scan reduces in a fixed order,
	// so the column — and the whole sweep — is byte-identical for every
	// value.
	SolverWorkers int
}

// Validate checks the grid before any work is scheduled, so CLIs can turn
// bad input into a usage error instead of an empty or panicking sweep.
func (opt SweepOptions) Validate() error {
	if len(opt.Algos) == 0 || len(opt.Ns) == 0 || len(opt.Ms) == 0 || len(opt.Orders) == 0 {
		return fmt.Errorf("sweep: empty grid dimension")
	}
	for _, a := range opt.Algos {
		if a != "storeall" && !slices.Contains(lifecycle.Algorithms(), a) {
			return fmt.Errorf("sweep: unknown algorithm %q (want one of kk|alg1|alg2|es|storeall)", a)
		}
	}
	for _, n := range opt.Ns {
		if n <= 0 {
			return fmt.Errorf("sweep: -n must be positive, got %d", n)
		}
	}
	for _, m := range opt.Ms {
		if m <= 0 {
			return fmt.Errorf("sweep: -m must be positive, got %d", m)
		}
	}
	if opt.Reps <= 0 {
		return fmt.Errorf("sweep: -reps must be positive, got %d", opt.Reps)
	}
	if opt.SolverWorkers < 0 {
		return fmt.Errorf("sweep: -solver-workers must be >= 0, got %d", opt.SolverWorkers)
	}
	for _, name := range opt.Orders {
		if _, err := stream.ParseOrder(name); err != nil {
			return err
		}
	}
	return nil
}

// sweepCell is one aggregated grid cell.
type sweepCell struct {
	algo   string
	n, m   int
	order  stream.Order
	greedy int // offline greedy reference cover size for the cell's instance
	cover  stats.Summary
	ratio  stats.Summary
	state  stats.Summary
}

// Sweep runs the grid and writes the results. Cells are sharded across
// opt.Workers goroutines (sched.Map); the output order — and, because every
// cell's seed derives only from its grid coordinates, the output bytes —
// are independent of the worker count.
func Sweep(opt SweepOptions, stdout io.Writer) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	if opt.Opt < 1 {
		opt.Opt = 10
	}
	orders := make([]stream.Order, len(opt.Orders))
	for i, name := range opt.Orders {
		o, err := stream.ParseOrder(name)
		if err != nil {
			return err
		}
		orders[i] = o
	}

	type job struct {
		algo  string
		n, m  int
		order stream.Order
	}
	var jobs []job
	for _, n := range opt.Ns {
		for _, m := range opt.Ms {
			for _, order := range orders {
				for _, algo := range opt.Algos {
					jobs = append(jobs, job{algo, n, m, order})
				}
			}
		}
	}
	cells, err := sched.Map(opt.Workers, len(jobs), func(i int) (sweepCell, error) {
		j := jobs[i]
		return runSweepCell(opt, j.algo, j.n, j.m, j.order)
	})
	if err != nil {
		return err
	}

	if opt.CSV {
		w := csv.NewWriter(stdout)
		if err := w.Write([]string{"algo", "n", "m", "order", "cover_mean", "cover_std", "ratio_mean", "greedy", "state_mean"}); err != nil {
			return err
		}
		for _, c := range cells {
			rec := []string{
				c.algo, strconv.Itoa(c.n), strconv.Itoa(c.m), c.order.String(),
				fmt.Sprintf("%.2f", c.cover.Mean), fmt.Sprintf("%.2f", c.cover.Stddev),
				fmt.Sprintf("%.3f", c.ratio.Mean), strconv.Itoa(c.greedy),
				fmt.Sprintf("%.1f", c.state.Mean),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	}

	tb := texttable.New(
		fmt.Sprintf("Sweep: planted opt=%d, %d reps per cell, seed %d", opt.Opt, opt.Reps, opt.Seed),
		"algo", "n", "m", "order", "cover(mean±std)", "ratio", "greedy", "state(words)")
	for _, c := range cells {
		tb.AddRow(c.algo, strconv.Itoa(c.n), strconv.Itoa(c.m), c.order.String(),
			fmt.Sprintf("%.0f±%.0f", c.cover.Mean, c.cover.Stddev),
			fmt.Sprintf("%.2f", c.ratio.Mean),
			strconv.Itoa(c.greedy),
			fmt.Sprintf("%.0f", c.state.Mean))
	}
	_, werr := tb.WriteTo(stdout)
	return werr
}

func runSweepCell(opt SweepOptions, algo string, n, m int, order stream.Order) (sweepCell, error) {
	if opt.Opt > n {
		return sweepCell{}, fmt.Errorf("sweep: opt=%d exceeds n=%d", opt.Opt, n)
	}
	w := workload.Planted(xrand.New(cellSeed(opt.Seed, "workload", n, m, 0, 0)), n, m, opt.Opt, 0)
	// Offline greedy ground truth for the cell's instance: the column every
	// streaming cover is read against. The max-gain scan shards across
	// opt.SolverWorkers goroutines with a deterministic lowest-index
	// tie-break, so the reference is identical for every worker count.
	greedy, err := setcover.GreedySizeWorkers(w.Inst, opt.SolverWorkers)
	if err != nil {
		return sweepCell{}, fmt.Errorf("sweep: greedy reference n=%d m=%d: %w", n, m, err)
	}
	var covers, ratios, states []float64
	for rep := 0; rep < opt.Reps; rep++ {
		rng := xrand.New(cellSeed(opt.Seed, algo, n, m, int(order), rep))
		edges := stream.Arrange(w.Inst, order, rng.Split())
		var alg stream.Algorithm
		if algo == "storeall" {
			alg = stream.NewStoreAll(n, m)
		} else {
			cfg := lifecycle.Config{Algo: algo, N: n, M: m, StreamLen: len(edges), Alpha: opt.Alpha}
			if alg, err = lifecycle.BuildCopy(cfg, rng.Split()); err != nil {
				return sweepCell{}, fmt.Errorf("sweep: %w", err)
			}
		}
		res := stream.RunEdges(alg, edges)
		if err := res.Cover.Verify(w.Inst); err != nil {
			return sweepCell{}, fmt.Errorf("sweep: %s n=%d m=%d %v: %w", algo, n, m, order, err)
		}
		covers = append(covers, float64(res.Cover.Size()))
		ratios = append(ratios, float64(res.Cover.Size())/float64(opt.Opt))
		states = append(states, float64(res.Space.State))
	}
	return sweepCell{
		algo: algo, n: n, m: m, order: order, greedy: greedy,
		cover: stats.Summarize(covers),
		ratio: stats.Summarize(ratios),
		state: stats.Summarize(states),
	}, nil
}

// cellSeed derives the deterministic base seed for one (algo, n, m, order,
// rep) repetition: a splitmix64-style mix of every grid coordinate, so the
// coins a rep draws are a pure function of its position in the grid — never
// of which worker ran it or in what order. This is the sweep scheduler's
// determinism contract (DESIGN.md §4e): byte-identical output for every
// -workers value. Mixing n and m in also gives every cell independent coins
// (the previous derivation omitted them, so same-algo/order cells shared
// coin sequences across instance sizes).
func cellSeed(base uint64, algo string, n, m, order, rep int) uint64 {
	h := base
	h = mix64(h ^ hashStr(algo))
	h = mix64(h ^ uint64(n))
	h = mix64(h ^ uint64(m))
	h = mix64(h ^ uint64(order))
	h = mix64(h ^ uint64(rep))
	return h
}

// mix64 is the splitmix64 finalizer: an avalanching bijection on uint64.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func hashStr(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
