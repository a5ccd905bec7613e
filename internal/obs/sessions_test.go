//go:build !obsoff

package obs

import (
	"strings"
	"testing"
)

func TestTraceIDMintParseRoundTrip(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a.IsZero() || b.IsZero() {
		t.Fatal("minted trace IDs must be non-zero")
	}
	if a == b {
		t.Fatal("two minted trace IDs collided")
	}
	s := a.String()
	if len(s) != 32 || strings.ToLower(s) != s {
		t.Fatalf("String() = %q, want 32 lowercase hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Fatalf("round trip %q != original %q", back, a)
	}
	var zero TraceID
	if zero.String() != "" {
		t.Fatalf("zero trace renders %q, want empty", zero.String())
	}
	if z, err := ParseTraceID(""); err != nil || !z.IsZero() {
		t.Fatalf("ParseTraceID(\"\") = %v, %v; want zero, nil", z, err)
	}
	for _, bad := range []string{"xyz", strings.Repeat("0", 31), strings.Repeat("g", 32)} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestSessionTableLifecycle(t *testing.T) {
	tab := NewSessionTable(4)
	tr := NewTraceID()
	h := tab.Acquire("s1", "kk", tr, false, 0)
	if h == nil {
		t.Fatal("Acquire returned nil with obs enabled")
	}
	h.Batch(100)
	h.Batch(28)
	h.Checkpoint(4096)

	snap := tab.Snapshot()
	if snap.Active != 1 || len(snap.Sessions) != 1 || snap.Capacity != 4 {
		t.Fatalf("snapshot active=%d rows=%d cap=%d, want 1/1/4", snap.Active, len(snap.Sessions), snap.Capacity)
	}
	row := snap.Sessions[0]
	if row.Token != "s1" || row.Algo != "kk" || row.Trace != tr.String() || row.State != "active" {
		t.Fatalf("row %+v", row)
	}
	if row.Edges != 128 || row.Batches != 2 || row.CheckpointBytes != 4096 {
		t.Fatalf("counters %+v", row)
	}
	if row.OpenedUnixNs == 0 || row.LastActivityUnixNs < row.OpenedUnixNs {
		t.Fatalf("timestamps %+v", row)
	}

	h.SetState(StateDetached)
	if got := tab.Snapshot(); got.Active != 0 || got.Sessions[0].State != "detached" {
		t.Fatalf("after detach: %+v", got.Sessions[0])
	}

	// A resume with the same trace must rebind the detached slot in place —
	// one row for one session identity — seeding edges from the checkpoint.
	h2 := tab.Acquire("s1", "kk", tr, true, 128)
	h2.Batch(72)
	snap = tab.Snapshot()
	if len(snap.Sessions) != 1 {
		t.Fatalf("resume grew the table to %d rows, want rebind", len(snap.Sessions))
	}
	row = snap.Sessions[0]
	if !row.Resumed || row.State != "active" || row.Edges != 200 {
		t.Fatalf("resumed row %+v", row)
	}

	// The pre-resume handle is a stale generation: its updates must land
	// nowhere.
	h.Batch(1000)
	h.SetState(StateFailed)
	row = tab.Snapshot().Sessions[0]
	if row.Edges != 200 || row.State != "active" {
		t.Fatalf("stale handle mutated the rebound slot: %+v", row)
	}

	h2.SetState(StateFinished)
	if got := tab.Snapshot().Sessions[0].State; got != "finished" {
		t.Fatalf("state %q, want finished", got)
	}
}

func TestSessionTableEvictionOrder(t *testing.T) {
	tab := NewSessionTable(2)
	a := tab.Acquire("a", "kk", NewTraceID(), false, 0)
	tab.Acquire("b", "kk", NewTraceID(), false, 0)
	a.SetState(StateFinished)

	// Third session: the retired slot (a) must be reused before any active
	// one is evicted.
	tab.Acquire("c", "kk", NewTraceID(), false, 0)
	snap := tab.Snapshot()
	if snap.EvictedActive != 0 {
		t.Fatalf("evicted %d live sessions with a retired slot available", snap.EvictedActive)
	}
	tokens := map[string]bool{}
	for _, r := range snap.Sessions {
		tokens[r.Token] = true
	}
	if !tokens["b"] || !tokens["c"] || tokens["a"] {
		t.Fatalf("tokens after reuse: %v", tokens)
	}

	// Fourth session with both slots active: the oldest active session is
	// evicted and counted.
	tab.Acquire("d", "kk", NewTraceID(), false, 0)
	snap = tab.Snapshot()
	if snap.EvictedActive != 1 {
		t.Fatalf("evicted_active = %d, want 1", snap.EvictedActive)
	}
	if len(snap.Sessions) != 2 {
		t.Fatalf("%d rows in a 2-slot table", len(snap.Sessions))
	}
	if snap.SessionsTotal != 4 {
		t.Fatalf("sessions_total = %d, want 4", snap.SessionsTotal)
	}
}

func TestSessionTableNilSafety(t *testing.T) {
	var tab *SessionTable
	if h := tab.Acquire("x", "kk", NewTraceID(), false, 0); h != nil {
		t.Fatal("nil table returned a handle")
	}
	var h *SessionSlot
	h.Batch(1)
	h.Checkpoint(1)
	h.SetState(StateFinished)
	if h.Edges() != 0 {
		t.Fatal("nil handle reads nonzero")
	}
	if s := tab.Snapshot(); len(s.Sessions) != 0 {
		t.Fatal("nil table snapshot has rows")
	}
}

func TestSessionSnapshotOrder(t *testing.T) {
	tab := NewSessionTable(8)
	for _, tok := range []string{"t1", "t2", "t3"} {
		tab.Acquire(tok, "kk", NewTraceID(), false, 0)
	}
	rows := tab.Snapshot().Sessions
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.OpenedUnixNs < b.OpenedUnixNs {
			t.Fatalf("rows not newest-first: %q(%d) before %q(%d)", a.Token, a.OpenedUnixNs, b.Token, b.OpenedUnixNs)
		}
	}
}

func TestWideEventLog(t *testing.T) {
	var buf strings.Builder
	l := NewWideEventLog(&buf)
	tr := NewTraceID()
	l.Emit(SessionEvent{Event: EventSessionOpen, Token: "s1", Trace: tr.String(), Algo: "kk"})
	l.Emit(SessionEvent{Event: EventSessionDetach, Token: "s1", Trace: tr.String(), Algo: "kk",
		Edges: 512, CheckpointBytes: 9000, Cause: "disconnect"})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, want := range []string{`"event":"session_open"`, `"token":"s1"`, `"trace":"` + tr.String() + `"`, `"ts_unix_ns":`} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("open line missing %s: %s", want, lines[0])
		}
	}
	for _, want := range []string{`"event":"session_detach"`, `"edges":512`, `"checkpoint_bytes":9000`, `"cause":"disconnect"`} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("detach line missing %s: %s", want, lines[1])
		}
	}

	// Nil log and nil writer are inert.
	var nl *WideEventLog
	nl.Emit(SessionEvent{Event: EventSessionOpen})
	if l2 := NewWideEventLog(nil); l2 != nil {
		t.Fatal("NewWideEventLog(nil) must return a nil (inert) log")
	}
}
