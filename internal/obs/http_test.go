//go:build !obsoff

package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

// TestHandlerExpvarReflectsReceiverHub is the regression test for the
// published "streamcover" expvar: it must reflect the hub whose Handler is
// serving /debug/vars (last Handler wins), not unconditionally Global().
func TestHandlerExpvarReflectsReceiverHub(t *testing.T) {
	// A distinctly-named global hub that would shadow the private one under
	// the old behavior.
	globalHub := NewHub(8)
	globalHub.Registry().Counter("expvar_probe_global_total", "probe").Add(3)
	SetGlobal(globalHub)
	defer SetGlobal(nil)

	private := NewHub(8)
	private.Registry().Counter("expvar_probe_private_total", "probe").Add(7)
	srv := httptest.NewServer(private.Handler())
	defer srv.Close()

	var vars struct {
		Streamcover Snapshot `json:"streamcover"`
	}
	if code := getJSON(t, srv.URL+"/debug/vars", &vars); code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	names := map[string]float64{}
	for _, p := range vars.Streamcover.Metrics {
		names[p.Name] = p.Value
	}
	if v, ok := names["expvar_probe_private_total"]; !ok || v != 7 {
		t.Fatalf("expvar snapshot missing the receiver hub's series (got %v) — Handler() still reads Global()", names)
	}
	if _, ok := names["expvar_probe_global_total"]; ok {
		t.Fatalf("expvar snapshot leaked the global hub's series: %v", names)
	}
}

func TestHandlerSessionsEndpoint(t *testing.T) {
	h := NewHub(8)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	tr := NewTraceID()
	slot := h.Serve().AcquireSession("sess-1", "alg1", tr, false, 0)
	slot.Batch(4096)

	var snap SessionsSnapshot
	if code := getJSON(t, srv.URL+"/sessions", &snap); code != http.StatusOK {
		t.Fatalf("/sessions status %d", code)
	}
	if snap.Active != 1 || len(snap.Sessions) != 1 {
		t.Fatalf("sessions snapshot %+v", snap)
	}
	row := snap.Sessions[0]
	if row.Token != "sess-1" || row.Trace != tr.String() || row.Algo != "alg1" ||
		row.State != "active" || row.Edges != 4096 {
		t.Fatalf("row %+v", row)
	}
}

func TestHandlerHealthAndReadiness(t *testing.T) {
	h := NewHub(8)
	srv := httptest.NewServer(h.Handler())
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz status %d before drain, want 200", code)
	}
	h.SetReady(false)
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d during drain, want 503", code)
	}
	if code := getJSON(t, srv.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz status %d during drain — liveness must not flip", code)
	}
	h.SetReady(true)
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("/readyz status %d after un-drain, want 200", code)
	}
}
