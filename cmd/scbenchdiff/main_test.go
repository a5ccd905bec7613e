package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnap writes BENCH_<idx>.json in dir with the given benchmarks.
func writeSnap(t *testing.T, dir string, idx int, benches map[string]Benchmark) {
	t.Helper()
	data, err := json.Marshal(Snapshot{Created: "2026-01-01T00:00:00Z", Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", idx))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func bench(ns, allocs float64) Benchmark {
	return Benchmark{Samples: 1, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestDiffNeedsTwoSnapshots(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder

	// No snapshots at all.
	if _, err := runDiff(dir, 1.20, &out); err == nil || !strings.Contains(err.Error(), "have 0") {
		t.Fatalf("empty dir: err=%v", err)
	}

	// One snapshot is still not enough.
	writeSnap(t, dir, 0, map[string]Benchmark{"BenchmarkX": bench(100, 2)})
	if _, err := runDiff(dir, 1.20, &out); err == nil || !strings.Contains(err.Error(), "have 1") {
		t.Fatalf("one snapshot: err=%v", err)
	}
}

func TestDiffMissingSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, map[string]Benchmark{"BenchmarkX": bench(100, 2)})
	if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := runDiff(dir, 1.20, &out); err == nil || !strings.Contains(err.Error(), "BENCH_1.json") {
		t.Fatalf("corrupt snapshot should fail with the path in the error, got %v", err)
	}
}

func TestDiffBenchmarkInOnlyOneSnapshot(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, map[string]Benchmark{
		"BenchmarkShared":  bench(100, 2),
		"BenchmarkRemoved": bench(50, 1),
	})
	writeSnap(t, dir, 1, map[string]Benchmark{
		"BenchmarkShared": bench(100, 2),
		"BenchmarkNew":    bench(75, 3),
	})
	var out strings.Builder
	ok, err := runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	// New and removed benchmarks are reported but never gate the diff.
	if !ok {
		t.Fatalf("appearing/disappearing benchmarks must not fail the gate:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{"BenchmarkNew", "new", "BenchmarkRemoved", "removed", "PASS"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDiffExactThresholdBoundary(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, map[string]Benchmark{"BenchmarkX": bench(100, 10)})
	// 120/100 == 1.20 exactly: the gate is strict (> threshold), so this passes.
	writeSnap(t, dir, 1, map[string]Benchmark{"BenchmarkX": bench(120, 10)})
	var out strings.Builder
	ok, err := runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("exactly ×1.20 must pass (gate is strict):\n%s", out.String())
	}

	// Just above the boundary fails.
	writeSnap(t, dir, 2, map[string]Benchmark{"BenchmarkX": bench(145, 10)}) // 145/120 ≈ 1.208
	out.Reset()
	ok, err = runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("×1.208 must fail:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("output missing REGRESSED:\n%s", out.String())
	}
}

func benchM(ns float64, metrics map[string]float64) Benchmark {
	return Benchmark{Samples: 1, NsPerOp: ns, Metrics: metrics}
}

func TestDiffCustomMetricsShownWhenNewOrRemoved(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, map[string]Benchmark{
		"BenchmarkX": benchM(100, map[string]float64{"edges/op": 18000, "old_only": 7}),
	})
	writeSnap(t, dir, 1, map[string]Benchmark{
		"BenchmarkX": benchM(100, map[string]float64{"edges/op": 18000, "edges/sec": 5e6, "edges/sec/core": 5e6}),
	})
	var out strings.Builder
	ok, err := runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	// Metrics appearing or disappearing never gate the diff.
	if !ok {
		t.Fatalf("new/removed metrics must not fail the gate:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{"edges/sec", "edges/sec/core", "old_only", "removed", "new"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestDiffThroughputMetricGatedHigherIsBetter(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, map[string]Benchmark{
		"BenchmarkX": benchM(100, map[string]float64{"edges/sec": 6e6}),
	})
	// Throughput collapsed to half: ratio 0.5 < 1/1.20, must fail.
	writeSnap(t, dir, 1, map[string]Benchmark{
		"BenchmarkX": benchM(100, map[string]float64{"edges/sec": 3e6}),
	})
	var out strings.Builder
	ok, err := runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("edges/sec halving must regress:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("output missing REGRESSED:\n%s", out.String())
	}

	// Throughput doubling is an improvement, not a regression.
	writeSnap(t, dir, 2, map[string]Benchmark{
		"BenchmarkX": benchM(100, map[string]float64{"edges/sec": 6e6}),
	})
	out.Reset()
	ok, err = runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("edges/sec doubling must pass:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "improved") {
		t.Fatalf("output missing improved:\n%s", out.String())
	}
}

// TestMetricGateUnits pins which custom metrics gate: every throughput
// unit, per wall second, per core or per CPU second, is higher-is-better.
func TestMetricGateUnits(t *testing.T) {
	for unit, want := range map[string]gateKind{
		"edges/sec":      gateHigher,
		"edges/sec/core": gateHigher,
		"edges/cpu-s":    gateHigher,
		"edges/op":       gateNone,
		"state_words":    gateNone,
		"ns/edge":        gateNone,
	} {
		if got := metricGate(unit); got != want {
			t.Errorf("metricGate(%q) = %d, want %d", unit, got, want)
		}
	}
}

func TestDiffInformationalMetricNeverGates(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, map[string]Benchmark{
		"BenchmarkX": benchM(100, map[string]float64{"state_words": 100}),
	})
	writeSnap(t, dir, 1, map[string]Benchmark{
		"BenchmarkX": benchM(100, map[string]float64{"state_words": 100000}),
	})
	var out strings.Builder
	ok, err := runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("state_words is informational and must not gate:\n%s", out.String())
	}
}

func TestDiffZeroAllocBaselineGrowthFails(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0, map[string]Benchmark{"BenchmarkX": bench(100, 0)})
	writeSnap(t, dir, 1, map[string]Benchmark{"BenchmarkX": bench(100, 1)})
	var out strings.Builder
	ok, err := runDiff(dir, 1.20, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("allocs 0 → 1 must regress regardless of ratio:\n%s", out.String())
	}
}

// TestParseBenchFoldsToNoiseFloor pins the -count folding policy: repeated
// samples keep the minimum ns/op and the maximum throughput (the noise
// floor on a contended machine), while plain custom metrics are averaged.
func TestParseBenchFoldsToNoiseFloor(t *testing.T) {
	out := strings.Join([]string{
		"BenchmarkEndToEndKK-8 	 500	 2100000 ns/op	 16 allocs/op	 540450 edges/op	 250000000 edges/sec	 18050 state_words",
		"BenchmarkEndToEndKK-8 	 400	 2600000 ns/op	 16 allocs/op	 540450 edges/op	 200000000 edges/sec	 18060 state_words",
	}, "\n")
	benches, _, err := parseBench(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	b, ok := benches["BenchmarkEndToEndKK"]
	if !ok {
		t.Fatalf("benchmark not parsed: %v", benches)
	}
	if b.Samples != 2 {
		t.Errorf("samples = %d, want 2", b.Samples)
	}
	if b.NsPerOp != 2100000 {
		t.Errorf("ns/op = %v, want min 2100000", b.NsPerOp)
	}
	if got := b.Metrics["edges/sec"]; got != 250000000 {
		t.Errorf("edges/sec = %v, want max 250000000", got)
	}
	if got := b.Metrics["state_words"]; got != 18055 {
		t.Errorf("state_words = %v, want mean 18055", got)
	}
	if got := b.Metrics["edges/op"]; got != 540450 {
		t.Errorf("edges/op = %v, want 540450", got)
	}
}

// benchHeader is `go test -bench` output as captured on a 2-CPU host: the
// header lines, one result line per benchmark, and the trailer.
const benchHeader = `goos: linux
goarch: amd64
pkg: streamcover
cpu: Intel(R) Xeon(R) Processor
BenchmarkCheckpointEncode/kk/cut1-2         	    9921	     12000 ns/op	 560.21 MB/s	      48 B/op	       1 allocs/op
BenchmarkCheckpointDecode/kk/cut1-2         	    6000	     19000 ns/op	 293.92 MB/s	    6362 B/op	       6 allocs/op
PASS
ok  	streamcover	40.673s
`

func TestParseBenchHostStamp(t *testing.T) {
	benches, host, err := parseBench(bufio.NewScanner(strings.NewReader(benchHeader)))
	if err != nil {
		t.Fatal(err)
	}
	want := Host{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2}
	if host != want {
		t.Fatalf("host = %+v, want %+v", host, want)
	}
	if _, ok := benches["BenchmarkCheckpointEncode/kk/cut1"]; !ok || len(benches) != 2 {
		t.Fatalf("benchmarks = %v", benches)
	}

	// go test prints no suffix when GOMAXPROCS is 1.
	_, host, err = parseBench(bufio.NewScanner(strings.NewReader("BenchmarkX 	 10	 5 ns/op\n")))
	if err != nil || host.GOMAXPROCS != 1 {
		t.Fatalf("unsuffixed result line: GOMAXPROCS %d, err %v", host.GOMAXPROCS, err)
	}
}

func TestDiffPrintsHostStamps(t *testing.T) {
	dir := t.TempDir()
	b := map[string]Benchmark{"BenchmarkX": bench(100, 2)}
	writeSnap(t, dir, 0, b) // a snapshot from before host stamps
	snap := Snapshot{Created: "2026-01-02T00:00:00Z", Benchmarks: b,
		Host: Host{Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor", NumCPU: 2, GOMAXPROCS: 2}}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := runDiff(dir, 1.20, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"host BENCH_0.json: not recorded",
		`host BENCH_1.json: go1.24.0 linux/amd64, cpu "Intel(R) Xeon(R) Processor", 2 CPUs, GOMAXPROCS 2`,
		"hosts differ",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "host BENCH_1.json") > strings.Index(got, "PASS") {
		t.Fatalf("stamps must come above the verdict:\n%s", got)
	}
}
