package cli

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"streamcover/internal/obs"
)

// TestStartObsServesMetricsAndTrace runs the whole opt-in loop every tool
// shares: StartObs serves /metrics on an ephemeral port, one kk Replay
// feeds it, a scrape shows the core series with the run's edges counted,
// and Close dumps a decision trace that reads back.
func TestStartObsServesMetricsAndTrace(t *testing.T) {
	if !obs.Enabled {
		t.Skip("obsoff compiles out the metrics and the decision ring")
	}
	path := genFixture(t, defaultGen())
	trace := filepath.Join(t.TempDir(), "run.sctrace")
	s, err := StartObs(ObsOptions{Listen: "127.0.0.1:0", TraceOut: trace})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			s.Close()
		}
	})
	if err := Replay(ReplayOptions{In: path, Algo: "kk", Seed: 7}, io.Discard); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	for _, series := range []string{
		`streamcover_edges_processed_total{algo="kk"}`,
		"streamcover_edges_per_second",
		"streamcover_state_words",
		"streamcover_decision_events_total",
		"streamcover_batch_duration_ns",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
	if strings.Contains(body, `streamcover_edges_processed_total{algo="kk"} 0`+"\n") {
		t.Error("/metrics counts no kk edges after a kk run")
	}
	if t.Failed() {
		t.Fatalf("scrape:\n%s", body)
	}

	closed = true
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("decision trace is empty after a kk run")
	}
}
