package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are the untraced run's client-visible metrics that go in
// its JSON result. BENCHMARK.json lists the same names and units under
// end_to_end. The table above the JSON line also prints the p99s and the
// open, finish, detach and resume medians; they are left out of the JSON
// because their run-to-run spread is too wide to bound (see README.md).
var endToEndMetrics = []metricDef{
	{"edges_per_s", "edges/s"},
	{"sessions_per_s", "sessions/s"},
	{"session_ms_p50", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayerMetrics are the traced run's metrics, one block per layer in
// ladder order. BENCHMARK.json lists the same names and units under
// per_layer.
var perLayerMetrics = []metricDef{
	{"algo.process_ns_per_edge", "ns"}, {"algo.finish_us", "us"}, {"algo.state_words", "count"},
	{"stream.ckpt_encode_us", "us"}, {"stream.ckpt_decode_us", "us"}, {"stream.ckpt_bytes", "count"},
	{"lifecycle.open_us", "us"}, {"lifecycle.mint_open_us", "us"},
	{"lifecycle.ingest_ns_per_edge", "ns"}, {"lifecycle.reserve_wait_ns_per_edge", "ns"},
	{"lifecycle.handoff_ns_per_edge", "ns"},
	{"lifecycle.detach_us", "us"}, {"lifecycle.resume_us", "us"}, {"lifecycle.finish_us", "us"},
	{"store.file.put_us", "us"}, {"store.file.get_us", "us"}, {"store.file.delete_us", "us"}, {"store.file.reserve_us", "us"},
	{"store.mem.put_us", "us"}, {"store.mem.get_us", "us"}, {"store.mem.delete_us", "us"}, {"store.mem.reserve_us", "us"},
	{"store.cluster.put_us", "us"}, {"store.cluster.get_us", "us"}, {"store.cluster.delete_us", "us"}, {"store.cluster.reserve_us", "us"},
	{"store.file.list_ms", "ms"}, {"store.errors", "count"},
	{"transport.dial_us", "us"}, {"transport.hello_us", "us"}, {"transport.flush_rtt_us", "us"},
	{"transport.send_ns_per_edge", "ns"}, {"transport.self_ns_per_edge", "ns"}, {"transport.errors", "count"},
	{"router.send_ns_per_edge", "ns"}, {"router.hop_ns_per_edge", "ns"}, {"router.hello_extra_us", "us"},
	{"ring.owners_ns", "ns"},
	{"runtime.allocs_per_session", "count"}, {"runtime.alloc_bytes_per_edge", "B"}, {"runtime.gc_cpu_frac", "frac"},
	{"obs.tax_frac", "frac"}, {"trace.overhead_frac", "frac"},
}

// metric is one measured value. n is the sample count behind a latency
// percentile (0 for other metrics).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// report collects one run's result: the environment it ran in, the session
// tally, every metric, and free-form lines (the ladder, the span table)
// printed ahead of the metrics.
type report struct {
	env       envStamp
	traced    bool
	attempted int
	failed    int
	metrics   []metric
	lines     []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// addLatency reports the median and the 99th percentile of ms at the
// reference host speed, multiplied by the host's speed (see calib.go), and
// the median as measured.
func (r *report) addLatency(base string, ms []float64, speed float64) {
	r.metrics = append(r.metrics,
		metric{name: base + "_p50", unit: "ms", value: quantile(ms, 0.50) * speed, n: len(ms)},
		metric{name: base + "_p99", unit: "ms", value: quantile(ms, 0.99) * speed, n: len(ms)},
		metric{name: "wall." + base + "_p50", unit: "ms", value: quantile(ms, 0.50), n: len(ms)})
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// tally adds one closed-loop or layer tally to the session counts.
func (r *report) tally(t tally) {
	r.attempted += t.attempted
	r.failed += t.failed
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// write prints the human-readable table and then, as the last line, the
// JSON result holding exactly this mode's registered metrics. A registered
// metric that is missing, has another unit, or is not a finite number is an
// error: the run printed no result.
func (r *report) write(w io.Writer) error {
	defs := endToEndMetrics
	if r.traced {
		defs = perLayerMetrics
	}
	byName := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		byName[m.name] = m
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		m, ok := byName[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case m.unit != d.unit:
			return fmt.Errorf("metric %s measured in %s, registered in %s", d.name, m.unit, d.unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			return fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		out.Metrics[d.name] = jsonMetric{m.value, m.unit}
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, r.env)
	for _, l := range r.lines {
		fmt.Fprintln(bw, l)
	}
	fmt.Fprintf(bw, "sessions attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, m := range r.metrics {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(bw, "%-36s %16.4f %-10s %s\n", m.name, m.value, m.unit, n)
	}
	bw.Write(js)
	bw.WriteByte('\n')
	return bw.Flush()
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// envStamp identifies the host a result came from, so two results are only
// compared when they ran on the same machine.
type envStamp struct {
	nproc, gomaxprocs int
	goVersion         string
	cpu               string
	storeFS           string // filesystem holding the checkpoint stores
}

func stampEnv(storeDir string) envStamp {
	return envStamp{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		cpu:        cpuModel(),
		storeFS:    fsType(storeDir),
	}
}

func (e envStamp) String() string {
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d go=%s cpu=%q store_fs=%s",
		e.nproc, e.gomaxprocs, e.goVersion, e.cpu, e.storeFS)
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType reports the type of the filesystem mounted at the longest mount
// point containing dir, from /proc/self/mountinfo.
func fsType(dir string) string {
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	dir = filepath.Clean(dir)
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		pre, post, ok := strings.Cut(line, " - ")
		f, g := strings.Fields(pre), strings.Fields(post)
		if !ok || len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (dir == mp || mp == "/" || strings.HasPrefix(dir, mp+"/")) && len(mp) > best {
			best, fs = len(mp), g[0]
		}
	}
	return fs
}
