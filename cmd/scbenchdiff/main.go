// Command scbenchdiff records and compares benchmark snapshots, turning the
// root benchmarks (BenchmarkEndToEnd*, BenchmarkScaling) into a tracked
// performance trajectory for the repository.
//
// Usage:
//
//	go test -run '^$' -bench 'EndToEnd|Scaling' -benchmem . | scbenchdiff -save
//	scbenchdiff -diff [-threshold 1.20]
//
// -save parses `go test -bench` output from stdin and writes the next
// numbered snapshot BENCH_<n>.json (ns/op, allocs/op, B/op and every custom
// metric such as edges/op and state_words), stamped with the host it was
// measured on: the Go version, go test's goos/goarch/cpu header lines, the
// CPU count and the GOMAXPROCS suffix of the result lines. Repeated -count samples are
// folded to the noise floor, not averaged: ns/op, allocs/op and B/op keep
// the minimum and throughput (/sec, /sec/core) the maximum — on a shared
// machine, contention only ever adds time, so min-of-N is the estimator
// closest to the code's true cost; remaining metrics are averaged.
// -diff loads the two most recent snapshots, prints both host stamps and a
// readable comparison table — including custom metrics that appear in only one of
// the snapshots — and exits non-zero when a gated metric regressed by more
// than the threshold factor, which is what makes `make bench-diff` usable
// as a CI gate. Gated metrics: ns/op and allocs/op (lower is better), plus
// every throughput metric whose unit ends in "/sec" or "/sec/core" (higher
// is better — edges/sec falling below 1/threshold of the previous snapshot
// fails the diff). Other custom metrics (edges/op, state_words, experiment
// findings) are informational.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"streamcover/internal/texttable"
)

// Benchmark is the averaged measurement of one benchmark function.
type Benchmark struct {
	// Samples is how many result lines were folded into the averages.
	Samples int `json:"samples"`
	// NsPerOp and AllocsPerOp are the gated metrics; BytesPerOp rides along.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	// Metrics holds every other reported unit (edges/op, state_words, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Host stamps a snapshot with the machine and toolchain it was measured
// on, so a diff across hosts is visible next to its verdict.
type Host struct {
	Go         string `json:"go,omitempty"`         // runtime.Version() of -save
	GOOS       string `json:"goos,omitempty"`       // go test's "goos:" line
	GOARCH     string `json:"goarch,omitempty"`     // go test's "goarch:" line
	CPU        string `json:"cpu,omitempty"`        // go test's "cpu:" line
	NumCPU     int    `json:"num_cpu,omitempty"`    // runtime.NumCPU() of -save
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"` // the result lines' -P suffix (none means 1)
}

// String renders the stamp on one line.
func (h Host) String() string {
	if h == (Host{}) {
		return "not recorded"
	}
	return fmt.Sprintf("%s %s/%s, cpu %q, %d CPUs, GOMAXPROCS %d", h.Go, h.GOOS, h.GOARCH, h.CPU, h.NumCPU, h.GOMAXPROCS)
}

// Snapshot is one BENCH_<n>.json file.
type Snapshot struct {
	Created string `json:"created"`
	Host
	Benchmarks map[string]Benchmark `json:"benchmarks"`
}

func main() {
	var (
		save      = flag.Bool("save", false, "parse `go test -bench` output from stdin and write the next BENCH_<n>.json")
		diff      = flag.Bool("diff", false, "compare the two most recent snapshots and exit 1 on regression")
		dir       = flag.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
		threshold = flag.Float64("threshold", 1.20, "regression factor: new/old above this fails the diff")
	)
	flag.Parse()
	switch {
	case *save == *diff:
		fmt.Fprintln(os.Stderr, "scbenchdiff: exactly one of -save or -diff is required")
		os.Exit(2)
	case *save:
		if err := runSave(*dir); err != nil {
			fmt.Fprintf(os.Stderr, "scbenchdiff: %v\n", err)
			os.Exit(1)
		}
	case *diff:
		ok, err := runDiff(*dir, *threshold, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scbenchdiff: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

// gomaxprocsSuffix is the "-8" style suffix go test appends to benchmark
// names; stripping it keeps snapshot keys stable across machines.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench folds `go test -bench` output into one measurement per
// benchmark: minimum for the lower-is-better columns, maximum for
// throughput, average for the rest (see the package comment).
// A result line is: Benchmark<Name>[-P] <iterations> {<value> <unit>}...
// The returned Host holds what the output says about the machine: the
// goos/goarch/cpu header lines and the first result line's GOMAXPROCS.
func parseBench(r *bufio.Scanner) (map[string]Benchmark, Host, error) {
	type acc struct {
		samples             int
		ns, allocs, bytes   float64
		hasAllocs, hasBytes bool
		metrics             map[string]float64
	}
	accs := map[string]*acc{}
	var host Host
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if key, v, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "goos":
				host.GOOS = v
			case "goarch":
				host.GOARCH = v
			case "cpu":
				host.CPU = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		if host.GOMAXPROCS == 0 {
			host.GOMAXPROCS = 1
			if m := gomaxprocsSuffix.FindStringSubmatch(fields[0]); m != nil {
				host.GOMAXPROCS, _ = strconv.Atoi(m[1])
			}
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		a := accs[name]
		if a == nil {
			a = &acc{metrics: map[string]float64{}}
			accs[name] = a
		}
		a.samples++
		first := a.samples == 1
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, host, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				if first || v < a.ns {
					a.ns = v
				}
			case "allocs/op":
				if !a.hasAllocs || v < a.allocs {
					a.allocs = v
				}
				a.hasAllocs = true
			case "B/op":
				if !a.hasBytes || v < a.bytes {
					a.bytes = v
				}
				a.hasBytes = true
			default:
				switch metricGate(unit) {
				case gateHigher:
					if v > a.metrics[unit] {
						a.metrics[unit] = v
					}
				default:
					a.metrics[unit] += v
				}
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, host, err
	}
	out := make(map[string]Benchmark, len(accs))
	for name, a := range accs {
		b := Benchmark{Samples: a.samples, NsPerOp: a.ns}
		if a.hasAllocs {
			b.AllocsPerOp = a.allocs
		}
		if a.hasBytes {
			b.BytesPerOp = a.bytes
		}
		if len(a.metrics) > 0 {
			b.Metrics = make(map[string]float64, len(a.metrics))
			for unit, v := range a.metrics {
				if metricGate(unit) == gateHigher {
					b.Metrics[unit] = v
				} else {
					b.Metrics[unit] = v / float64(a.samples)
				}
			}
		}
		out[name] = b
	}
	return out, host, nil
}

// snapshots returns the BENCH_<n>.json files in dir sorted by index.
func snapshots(dir string) ([]string, []int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	var paths []string
	var indices []int
	for _, e := range entries {
		m := re.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		idx, _ := strconv.Atoi(m[1])
		paths = append(paths, filepath.Join(dir, e.Name()))
		indices = append(indices, idx)
	}
	sort.Sort(byIndex{paths, indices})
	return paths, indices, nil
}

type byIndex struct {
	paths   []string
	indices []int
}

func (b byIndex) Len() int           { return len(b.indices) }
func (b byIndex) Less(i, j int) bool { return b.indices[i] < b.indices[j] }
func (b byIndex) Swap(i, j int) {
	b.paths[i], b.paths[j] = b.paths[j], b.paths[i]
	b.indices[i], b.indices[j] = b.indices[j], b.indices[i]
}

func runSave(dir string) error {
	benches, host, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin (pipe `go test -bench ...` output in)")
	}
	_, indices, err := snapshots(dir)
	if err != nil {
		return err
	}
	next := 0
	if len(indices) > 0 {
		next = indices[len(indices)-1] + 1
	}
	host.Go, host.NumCPU = runtime.Version(), runtime.NumCPU()
	snap := Snapshot{
		Created:    time.Now().UTC().Format(time.RFC3339),
		Host:       host,
		Benchmarks: benches,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("saved %d benchmarks to %s\n", len(benches), path)
	return nil
}

func loadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// runDiff compares the two most recent snapshots in dir, writes the
// comparison table to w, and reports whether the diff passed the gate.
func runDiff(dir string, threshold float64, w io.Writer) (bool, error) {
	paths, _, err := snapshots(dir)
	if err != nil {
		return false, err
	}
	if len(paths) < 2 {
		return false, fmt.Errorf("need at least two BENCH_<n>.json snapshots in %s, have %d (run `make bench-save` first)", dir, len(paths))
	}
	oldPath, newPath := paths[len(paths)-2], paths[len(paths)-1]
	oldSnap, err := loadSnapshot(oldPath)
	if err != nil {
		return false, err
	}
	newSnap, err := loadSnapshot(newPath)
	if err != nil {
		return false, err
	}

	fmt.Fprintf(w, "host %s: %s\nhost %s: %s\n", filepath.Base(oldPath), oldSnap.Host, filepath.Base(newPath), newSnap.Host)
	if oldSnap.Host != newSnap.Host {
		fmt.Fprintln(w, "hosts differ: ratios include the change of host")
	}

	names := make([]string, 0, len(newSnap.Benchmarks))
	for name := range newSnap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	tbl := texttable.New(
		fmt.Sprintf("%s → %s (regression threshold ×%.2f)", filepath.Base(oldPath), filepath.Base(newPath), threshold),
		"benchmark", "metric", "old", "new", "ratio", "status")
	regressed := false
	addRow := func(name, metric string, oldV, newV float64, gate gateKind) {
		ratio := "n/a"
		status := "ok"
		if oldV > 0 {
			r := newV / oldV
			ratio = fmt.Sprintf("%.2f", r)
			switch {
			case gate == gateLower && r > threshold:
				status = "REGRESSED"
				regressed = true
			case gate == gateHigher && r < 1/threshold:
				status = "REGRESSED"
				regressed = true
			case gate == gateHigher && r > threshold:
				status = "improved"
			case gate != gateHigher && r < 1/threshold:
				status = "improved"
			}
		} else if gate == gateLower && newV > oldV {
			// A zero baseline regresses on any growth (e.g. allocs 0 → 3).
			status = "REGRESSED"
			regressed = true
		}
		tbl.AddRow(name, metric, fmtVal(oldV), fmtVal(newV), ratio, status)
	}
	for _, name := range names {
		nb := newSnap.Benchmarks[name]
		ob, ok := oldSnap.Benchmarks[name]
		if !ok {
			tbl.AddRow(name, "ns/op", "-", fmtVal(nb.NsPerOp), "n/a", "new")
			continue
		}
		addRow(name, "ns/op", ob.NsPerOp, nb.NsPerOp, gateLower)
		addRow(name, "allocs/op", ob.AllocsPerOp, nb.AllocsPerOp, gateLower)
		for _, unit := range sortedMetricKeys(nb.Metrics) {
			if ov, ok := ob.Metrics[unit]; ok {
				addRow(name, unit, ov, nb.Metrics[unit], metricGate(unit))
			} else {
				// A metric only the new snapshot reports is shown but never
				// gated — there is no baseline to regress from.
				tbl.AddRow(name, unit, "-", fmtVal(nb.Metrics[unit]), "n/a", "new")
			}
		}
		for _, unit := range sortedMetricKeys(ob.Metrics) {
			if _, ok := nb.Metrics[unit]; !ok {
				tbl.AddRow(name, unit, fmtVal(ob.Metrics[unit]), "-", "n/a", "removed")
			}
		}
	}
	for name := range oldSnap.Benchmarks {
		if _, ok := newSnap.Benchmarks[name]; !ok {
			tbl.AddRow(name, "ns/op", fmtVal(oldSnap.Benchmarks[name].NsPerOp), "-", "n/a", "removed")
		}
	}
	fmt.Fprint(w, tbl.String())
	if regressed {
		fmt.Fprintf(w, "FAIL: at least one benchmark regressed beyond ×%.2f\n", threshold)
		return false, nil
	}
	fmt.Fprintln(w, "PASS: no regression beyond threshold")
	return true, nil
}

// gateKind classifies how a metric participates in the regression gate.
type gateKind int

const (
	gateNone   gateKind = iota // informational: shown, never gates
	gateLower                  // lower is better (ns/op, allocs/op)
	gateHigher                 // higher is better (throughput)
)

// metricGate classifies a custom metric by its unit: throughput units
// ("edges/sec", "edges/sec/core", "edges/cpu-s", anything ending in /sec,
// /sec/core or /cpu-s) are gated higher-is-better; everything else is
// informational.
func metricGate(unit string) gateKind {
	for _, suffix := range []string{"/sec", "/sec/core", "/cpu-s"} {
		if strings.HasSuffix(unit, suffix) {
			return gateHigher
		}
	}
	return gateNone
}

func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
