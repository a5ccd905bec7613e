package streamcover

// One testing.B benchmark per evaluation artifact (DESIGN.md's
// per-experiment index). Each benchmark regenerates the corresponding
// experiment at the quick configuration and reports its headline finding as
// a custom metric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation and records the measured shapes alongside the timings.
//
// The paper has a single table (Table 1) and no figures; the remaining
// benchmarks cover the analytic claims (separation, lower bound, Lemma 2,
// invariants) that stand in for figures in a theory paper.

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"streamcover/internal/experiments"
)

// reportThroughput publishes the edge-throughput metrics every streaming
// benchmark shares: edges consumed per op, absolute edges/sec over the
// measured wall time, edges/sec/core (normalized by GOMAXPROCS; see
// DESIGN.md §4g for the roofline this is measured against), and
// edges/cpu-s, edges per second of the process's user+sys CPU time since
// cpu0, which does not depend on how many cores the host has. Callers take
// cpu0 from cpuSeconds right after ResetTimer.
func reportThroughput(b *testing.B, edgesPerOp int, cpu0 float64) {
	edges := float64(edgesPerOp) * float64(b.N)
	b.ReportMetric(float64(edgesPerOp), "edges/op")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		eps := edges / sec
		b.ReportMetric(eps, "edges/sec")
		b.ReportMetric(eps/float64(runtime.GOMAXPROCS(0)), "edges/sec/core")
	}
	if cpu := cpuSeconds() - cpu0; cpu > 0 {
		b.ReportMetric(edges/cpu, "edges/cpu-s")
	}
}

// cpuSeconds returns the user+sys CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func benchReport(b *testing.B, run func(experiments.Config) (*experiments.Report, error), metrics ...string) {
	b.Helper()
	cfg := experiments.Quick()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		var err error
		rep, err = run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Findings[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// BenchmarkTable1Row1ElementSampling regenerates Table 1 row 1
// (α = o(√n), Θ̃(mn/α) space, adversarial order, element sampling).
func BenchmarkTable1Row1ElementSampling(b *testing.B) {
	benchReport(b, experiments.Table1Row1, "space_vs_alpha_slope")
}

// BenchmarkTable1Row2KK regenerates Table 1 row 2 (α = Θ̃(√n), Õ(m) space,
// adversarial order, the KK-algorithm).
func BenchmarkTable1Row2KK(b *testing.B) {
	benchReport(b, experiments.Table1Row2, "space_vs_m_slope")
}

// BenchmarkTable1Row3Adversarial regenerates Table 1 row 3 (α = Ω̃(√n),
// Õ(mn/α²) space, adversarial order, Algorithm 2).
func BenchmarkTable1Row3Adversarial(b *testing.B) {
	benchReport(b, experiments.Table1Row3, "promoted_vs_alpha_slope")
}

// BenchmarkTable1Row4RandomOrder regenerates Table 1 row 4 (α = Θ̃(√n),
// Õ(m/√n) space, random order, Algorithm 1 — the paper's main result).
func BenchmarkTable1Row4RandomOrder(b *testing.B) {
	benchReport(b, experiments.Table1Row4, "space_vs_m_slope", "kk_to_alg1_space_ratio")
}

// BenchmarkSeparation regenerates the adversarial-vs-random-order
// separation of Theorems 2 and 3 at Algorithm 1's space budget.
func BenchmarkSeparation(b *testing.B) {
	benchReport(b, experiments.Separation, "adversarial_to_random_cover_ratio")
}

// BenchmarkLowerBoundReduction regenerates the Theorem 2 construction:
// Lemma 1 family, t-party disjointness, reduction, decision rule and
// message-size measurement.
func BenchmarkLowerBoundReduction(b *testing.B) {
	benchReport(b, experiments.LowerBound, "storeall_msg_intersecting", "bounded_msg_intersecting")
}

// BenchmarkConcentration regenerates the Lemma 2 sampling experiments.
func BenchmarkConcentration(b *testing.B) {
	benchReport(b, experiments.Concentration, "regime1_violation_rate")
}

// BenchmarkAblationKKLevels regenerates the KK level-decay ablation
// (E|S_i| ≤ ½·E|S_{i−1}|, [19]).
func BenchmarkAblationKKLevels(b *testing.B) {
	benchReport(b, experiments.AblationKKLevels, "worst_decay_ratio_from_level2")
}

// BenchmarkAblationPromoted regenerates the Algorithm 2 promoted-set
// scaling ablation (Õ(mn/α²), Theorem 4's mechanism).
func BenchmarkAblationPromoted(b *testing.B) {
	benchReport(b, experiments.AblationPromoted, "promoted_vs_alpha_slope")
}

// BenchmarkAblationAlg1Invariants regenerates the Algorithm 1 invariant
// ablation ((I2), (I3), Lemma 8).
func BenchmarkAblationAlg1Invariants(b *testing.B) {
	benchReport(b, experiments.AblationAlg1, "max_added_per_alg", "pre_inclusion_edges_max")
}

// BenchmarkSetArrivalContrast regenerates the §1 arrival-model contrast
// (set-arrival Θ̃(n) vs edge-arrival Ω̃(m) at α = Θ(√n)).
func BenchmarkSetArrivalContrast(b *testing.B) {
	benchReport(b, experiments.SetArrivalContrast, "edge_to_set_space_ratio")
}

// BenchmarkProtocol regenerates the deterministic t-party protocol table
// (paper §3's reason for t = Ω(α²/n) parties in the lower bound).
func BenchmarkProtocol(b *testing.B) {
	benchReport(b, experiments.Protocol, "worst_cover_over_bound", "max_message_over_n")
}

// BenchmarkMultiPassTradeoff regenerates the multi-pass baseline trade-off
// ([6]-style sample-and-prune).
func BenchmarkMultiPassTradeoff(b *testing.B) {
	benchReport(b, experiments.MultiPassTradeoff, "passes_at_small_budget", "passes_at_full_budget")
}

// BenchmarkEnsembleBoost regenerates the high-probability boosting
// experiment (paper remarks after Theorems 2 and 4).
func BenchmarkEnsembleBoost(b *testing.B) {
	benchReport(b, experiments.EnsembleBoost, "boost_improvement")
}

// BenchmarkFractional regenerates the fractional Set Cover experiment
// ([16], cited in §1 as edge-arrival implementable).
func BenchmarkFractional(b *testing.B) {
	benchReport(b, experiments.Fractional, "lp_over_opt")
}

// BenchmarkCWPasses regenerates the Chakrabarti–Wirth p-pass set-arrival
// ladder ([10], §1.3).
func BenchmarkCWPasses(b *testing.B) {
	benchReport(b, experiments.CWPasses, "worst_cover_over_budget")
}

// BenchmarkCoverageCurves regenerates the coverage/state trajectory tables.
func BenchmarkCoverageCurves(b *testing.B) {
	benchReport(b, experiments.CoverageCurves, "kk_to_alg1_state")
}

// BenchmarkRobustness regenerates the partial-randomness interpolation
// between the Theorem 2 and Theorem 3 regimes.
func BenchmarkRobustness(b *testing.B) {
	benchReport(b, experiments.Robustness, "adversarial_to_random")
}

// BenchmarkKnockout regenerates the Algorithm 1 component-knockout
// ablation.
func BenchmarkKnockout(b *testing.B) {
	benchReport(b, experiments.Knockout, "patch_only_to_full")
}

// BenchmarkVariance regenerates the run-to-run variance study.
func BenchmarkVariance(b *testing.B) {
	benchReport(b, experiments.Variance, "rel_spread_alg1")
}

// BenchmarkScaling charts raw throughput and peak state of each one-pass
// algorithm as the instance grows — the perf matrix behind the space tables
// (sub-benchmarks select with -bench=Scaling/alg1/m=36000 etc.).
func BenchmarkScaling(b *testing.B) {
	for _, m := range []int{9000, 18000, 36000} {
		n := 900
		w := PlantedWorkload(NewRand(uint64(m)), n, m, 15, 0)
		edges := Arrange(w.Inst, RandomOrder, NewRand(7))
		for _, tc := range []struct {
			name string
			mk   func(i int) Algorithm
		}{
			{"kk", func(i int) Algorithm { return NewKK(n, m, NewRand(uint64(i))) }},
			{"alg1", func(i int) Algorithm { return NewRandomOrder(n, m, len(edges), NewRand(uint64(i))) }},
			{"alg2", func(i int) Algorithm { return NewAdversarial(n, m, 60, NewRand(uint64(i))) }},
		} {
			b.Run(fmt.Sprintf("%s/m=%d", tc.name, m), func(b *testing.B) {
				// state_words comes from one untimed run at coin seed 0,
				// so the same code always reports the same number; the
				// timed runs draw seeds 0..b.N−1.
				state := RunEdges(tc.mk(0), edges).Space.State
				b.ResetTimer()
				cpu0 := cpuSeconds()
				for i := 0; i < b.N; i++ {
					RunEdges(tc.mk(i), edges)
				}
				// Every algorithm row reports the same metric set —
				// edges/op, edges/sec, edges/sec/core, edges/cpu-s,
				// state_words — so scbenchdiff can line rows up across
				// snapshots.
				reportThroughput(b, len(edges), cpu0)
				b.ReportMetric(float64(state), "state_words")
			})
		}
	}
}

// BenchmarkEndToEndAlg1 measures raw streaming throughput of the main
// algorithm (edges processed per op reported as a metric).
func BenchmarkEndToEndAlg1(b *testing.B) {
	rng := NewRand(1)
	w := PlantedWorkload(rng.Split(), 900, 18000, 15, 0)
	edges := Arrange(w.Inst, RandomOrder, rng.Split())
	b.ResetTimer()
	cpu0 := cpuSeconds()
	for i := 0; i < b.N; i++ {
		alg := NewRandomOrder(900, 18000, len(edges), NewRand(uint64(i)))
		RunEdges(alg, edges)
	}
	reportThroughput(b, len(edges), cpu0)
}

// BenchmarkEndToEndKK measures raw streaming throughput of the
// KK-algorithm on the same workload.
func BenchmarkEndToEndKK(b *testing.B) {
	rng := NewRand(2)
	w := PlantedWorkload(rng.Split(), 900, 18000, 15, 0)
	edges := Arrange(w.Inst, RandomOrder, rng.Split())
	b.ResetTimer()
	cpu0 := cpuSeconds()
	for i := 0; i < b.N; i++ {
		RunEdges(NewKK(900, 18000, NewRand(uint64(i))), edges)
	}
	reportThroughput(b, len(edges), cpu0)
}
