package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runShort runs one workload at minimal length and decodes the JSON line
// that ends its output.
func runShort(t *testing.T, w workload, seed uint64, traced bool) result {
	t.Helper()
	rep, err := run(options{workload: w, seed: seed, seconds: 0.2, traced: traced, dir: t.TempDir(), setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
	return res
}

func metricNames(r result) string {
	var names []string
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

// TestWorkloadsEmitEveryMetric runs every workload at minimal length in
// both modes: each emits every registered metric with its unit and no
// failed session. A second seed changes the reference fingerprint but not
// the set of metric names.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			one := runShort(t, w, 1, false)
			two := runShort(t, w, 2, false)
			if metricNames(one) != metricNames(two) {
				t.Errorf("seeds 1 and 2 emit different metrics:\n%s\n%s", metricNames(one), metricNames(two))
			}
			runShort(t, w, 1, true)
			in1, err := makeInput(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			in2, err := makeInput(w, 2)
			if err != nil {
				t.Fatal(err)
			}
			if in1.fp == in2.fp {
				t.Errorf("seeds 1 and 2 share the reference fingerprint %016x", in1.fp)
			}
		})
	}
}

// TestBenchmarkJSONMatchesRegistry pins BENCHMARK.json to the metrics the
// command emits, and its workloads to ones the command runs.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	for _, c := range []struct {
		json []def
		code []metricDef
	}{{spec.EndToEnd, endToEndMetrics}, {spec.PerLayer, perLayerMetrics}} {
		var got, want []string
		for _, d := range c.json {
			got = append(got, d.Name+"/"+d.Unit)
		}
		for _, d := range c.code {
			want = append(want, d.name+"/"+d.unit)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("BENCHMARK.json metrics\n%v\nthe command emits\n%v", got, want)
		}
	}
}
