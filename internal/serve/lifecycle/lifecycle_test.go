package lifecycle

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"streamcover/internal/obs"
	"streamcover/internal/serve/store"
	"streamcover/internal/setcover"
	"streamcover/internal/stream"
)

func testConfig() Config {
	return Config{Algo: "kk", N: 64, M: 16, Seed: 7}
}

// testEdges builds a deterministic edge stream covering the test shape.
func testEdges(cfg Config) []stream.Edge {
	var edges []stream.Edge
	for s := 0; s < cfg.M; s++ {
		for u := 0; u < cfg.N; u++ {
			if (u+s)%3 == 0 {
				edges = append(edges, stream.Edge{Set: setcover.SetID(s), Elem: setcover.Element(u)})
			}
		}
	}
	return edges
}

// feed pushes edges through the Reserve/Enqueue lease API in ring-sized
// batches, exactly as the transport does.
func feed(s *Session, edges []stream.Edge) {
	for off := 0; off < len(edges); {
		buf := s.Reserve()
		n := copy(buf, edges[off:])
		s.Enqueue(n)
		off += n
	}
}

func mustOpen(t *testing.T, m *Manager, token string, cfg Config) *Session {
	t.Helper()
	s, err := m.Open(token, obs.TraceID{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLifecycleDetachResumeRoundTrip runs the full state machine against a
// MemStore: feed half, detach, resume, feed the rest, and the fingerprint
// must match an uninterrupted run with the same config — the same
// invariant the golden serve tests pin over the wire.
func TestLifecycleDetachResumeRoundTrip(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)

	uMgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	uSess := mustOpen(t, uMgr, "straight", cfg)
	feed(uSess, edges)
	want, err := uMgr.Finish(uSess)
	if err != nil {
		t.Fatal(err)
	}

	st := store.NewMemStore()
	mgr, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := mustOpen(t, mgr, "broken", cfg)
	openTrace := sess.Trace()
	if openTrace.IsZero() {
		t.Fatal("Open minted a zero trace")
	}
	half := len(edges) / 2
	feed(sess, edges[:half])
	pos, err := mgr.Detach(sess, "test-detach")
	if err != nil {
		t.Fatal(err)
	}
	if pos != half {
		t.Fatalf("Detach pos = %d, want %d", pos, half)
	}
	if _, err := st.Get("broken"); err != nil {
		t.Fatalf("Detach left no checkpoint in the store: %v", err)
	}
	if mgr.Active() != 0 {
		t.Fatalf("Active = %d after detach", mgr.Active())
	}

	// Resume proposing a different trace: the checkpoint's stamp must win.
	sess2, rpos, err := mgr.Resume("broken", obs.NewTraceID(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rpos != half {
		t.Fatalf("Resume pos = %d, want %d", rpos, half)
	}
	if sess2.Trace() != openTrace {
		t.Fatalf("resume trace %s, want open trace %s", sess2.Trace(), openTrace)
	}
	feed(sess2, edges[rpos:])
	got, err := mgr.Finish(sess2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed fingerprint %016x != uninterrupted %016x", got.Fingerprint(), want.Fingerprint())
	}
	// Finish retires the checkpoint for good.
	if _, err := st.Get("broken"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("checkpoint survived Finish: %v", err)
	}
}

// TestLifecycleMintSkipsStoredTokens is the restart regression: the token
// counter is in-memory and resets with the process, so a fresh manager on
// a store still holding detach checkpoints must not hand any of their
// tokens to a new session (whose Finish would delete the detached state).
// Minting walks the counter with Reserve alone, so it must step around
// every stored token and reuse only the one a Finish freed.
func TestLifecycleMintSkipsStoredTokens(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)
	st := store.NewMemStore()

	// s000001, s000002 and s000004 detach with checkpoints; s000003
	// finishes, which frees its token.
	mgrA, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(map[string]int)
	for i := 1; i <= 4; i++ {
		s := mustOpen(t, mgrA, "", cfg)
		if want := fmt.Sprintf("s%06d", i); s.Token() != want {
			t.Fatalf("minted token %q, want %q", s.Token(), want)
		}
		stop := i * len(edges) / 8
		feed(s, edges[:stop])
		if i == 3 {
			feed(s, edges[stop:])
			if _, err := mgrA.Finish(s); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, err := mgrA.Detach(s, "restart-test"); err != nil {
			t.Fatal(err)
		}
		parked[s.Token()] = stop
	}

	// "Restart": a new manager on the same store, counter back at zero.
	mgrB, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"s000003", "s000005"} {
		s := mustOpen(t, mgrB, "", cfg)
		if s.Token() != want {
			t.Fatalf("fresh manager minted %q, want %q (skip held tokens, take the next free one)", s.Token(), want)
		}
		// Finishing the new session must leave every parked checkpoint.
		feed(s, edges)
		if _, err := mgrB.Finish(s); err != nil {
			t.Fatal(err)
		}
	}
	for tok, pos := range parked {
		if _, rpos, err := mgrB.Resume(tok, obs.TraceID{}, cfg); err != nil || rpos != pos {
			t.Fatalf("resume %s after restart: pos=%d err=%v, want pos %d", tok, rpos, err, pos)
		}
	}
}

// TestLifecycleMintSharedStore is the cluster mint-collision regression:
// two managers (two shards) sharing one store, both with fresh counters
// and neither's first session checkpointed, must not hand out the same
// token. Without the store-side Reserve, both would see no local
// attachment of s000001 and mint it twice.
func TestLifecycleMintSharedStore(t *testing.T) {
	cfg := testConfig()
	st := store.NewMemStore()
	shardA, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	shardB, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa := mustOpen(t, shardA, "", cfg)
	sb := mustOpen(t, shardB, "", cfg)
	if sa.Token() == sb.Token() {
		t.Fatalf("two shards minted the same token %q against a shared store", sa.Token())
	}
}

// TestLifecycleMintSharedStoreRace hammers the same property concurrently:
// every token minted across two shards over a shared store is unique.
func TestLifecycleMintSharedStoreRace(t *testing.T) {
	cfg := testConfig()
	st := store.NewMemStore()
	var mu sync.Mutex
	seen := make(map[string]string)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		mgr, err := NewManager(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		shard := fmt.Sprintf("shard%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				s, err := mgr.Open("", obs.TraceID{}, cfg)
				if err != nil {
					t.Errorf("%s: %v", shard, err)
					return
				}
				mu.Lock()
				if prev, dup := seen[s.Token()]; dup {
					t.Errorf("token %q minted by both %s and %s", s.Token(), prev, shard)
				}
				seen[s.Token()] = shard
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 32 {
		t.Fatalf("minted %d distinct tokens, want 32", len(seen))
	}
}

// TestLifecycleResumeMintMarker: a token whose shard died between mint and
// first checkpoint holds only the reservation marker; resuming it must
// report unknown-session (the client re-hellos from zero), not feed the
// marker to the checkpoint decoder.
func TestLifecycleResumeMintMarker(t *testing.T) {
	cfg := testConfig()
	st := store.NewMemStore()
	if won, err := st.Reserve("s000001"); err != nil || !won {
		t.Fatalf("Reserve = (%v, %v)", won, err)
	}
	mgr, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgr.Resume("s000001", obs.TraceID{}, cfg); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Resume of a mint marker = %v, want ErrUnknownSession", err)
	}
}

// TestLifecycleAdoptionMetrics: a resume restoring a checkpoint written by
// a different manager counts as an adoption exactly once; a local
// detach/resume cycle on the same token afterwards does not.
func TestLifecycleAdoptionMetrics(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)
	st := store.NewMemStore()
	shardA, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub(1)
	shardB, err := NewManager(st, hub.Serve())
	if err != nil {
		t.Fatal(err)
	}
	shardB.SetShard("shard-b")

	adoptions := func() float64 {
		var v float64
		for _, p := range hub.Snapshot().Metrics {
			if p.Name == "streamcover_serve_adoptions_total" {
				v = p.Value
			}
		}
		return v
	}

	sa := mustOpen(t, shardA, "adoptme", cfg)
	feed(sa, edges[:len(edges)/2])
	if _, err := shardA.Detach(sa, "shard-kill"); err != nil {
		t.Fatal(err)
	}
	sb, pos, err := shardB.Resume("adoptme", obs.TraceID{}, cfg)
	if err != nil || pos != len(edges)/2 {
		t.Fatalf("adopting resume: pos=%d err=%v", pos, err)
	}
	if got := adoptions(); got != 1 {
		t.Fatalf("adoptions_total = %v after a cross-shard resume, want 1", got)
	}
	if _, err := shardB.Detach(sb, "local-cycle"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := shardB.Resume("adoptme", obs.TraceID{}, cfg); err != nil {
		t.Fatal(err)
	}
	if got := adoptions(); got != 1 {
		t.Fatalf("adoptions_total = %v after a local reattach, want still 1", got)
	}
}

// TestLifecycleMintSkipsActiveTokens covers the in-process flavor of the
// same collision: a client-chosen token shaped like a minted one.
func TestLifecycleMintSkipsActiveTokens(t *testing.T) {
	cfg := testConfig()
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mustOpen(t, mgr, "s000001", cfg)
	minted := mustOpen(t, mgr, "", cfg)
	if minted.Token() == "s000001" {
		t.Fatal("minted a token that is currently attached")
	}
}

// TestLifecycleDetachBytesMatchStore pins the satellite fix: checkpoint
// size comes from the store's Put return, not a filesystem re-stat, and it
// must equal the blob the store actually holds.
func TestLifecycleDetachBytesMatchStore(t *testing.T) {
	cfg := testConfig()
	hub := obs.NewHub(1)
	so := hub.Serve()
	st := store.NewMemStore()
	mgr, err := NewManager(st, so)
	if err != nil {
		t.Fatal(err)
	}
	sess := mustOpen(t, mgr, "sized", cfg)
	feed(sess, testEdges(cfg))
	if _, err := mgr.Detach(sess, "size-check"); err != nil {
		t.Fatal(err)
	}
	blob, err := st.Get("sized")
	if err != nil {
		t.Fatal(err)
	}
	var putBytes float64
	for _, p := range hub.Snapshot().Metrics {
		if p.Name == "streamcover_serve_store_put_bytes_total" {
			putBytes = p.Value
		}
	}
	if int(putBytes) != len(blob) {
		t.Fatalf("store_put_bytes_total = %v, stored blob is %d bytes", putBytes, len(blob))
	}
}

// TestLifecycleRejections covers the typed error surface the transport
// maps to wire codes.
func TestLifecycleRejections(t *testing.T) {
	cfg := testConfig()
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open("../escape", obs.TraceID{}, cfg); !errors.Is(err, ErrToken) {
		t.Fatalf("Open(../escape) = %v, want ErrToken", err)
	}
	if _, _, err := mgr.Resume(".hidden", obs.TraceID{}, cfg); !errors.Is(err, ErrToken) {
		t.Fatalf("Resume(.hidden) = %v, want ErrToken", err)
	}
	if _, _, err := mgr.Resume("ghost", obs.TraceID{}, cfg); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Resume(ghost) = %v, want ErrUnknownSession", err)
	}
	sess := mustOpen(t, mgr, "dup", cfg)
	if _, err := mgr.Open("dup", obs.TraceID{}, cfg); !errors.Is(err, ErrSessionActive) {
		t.Fatalf("Open(dup) = %v, want ErrSessionActive", err)
	}
	bad := cfg
	bad.Algo = "no-such-alg"
	if _, err := mgr.Open("", obs.TraceID{}, bad); err == nil {
		t.Fatal("Open with unknown algorithm succeeded")
	}
	mgr.Drain()
	if _, err := mgr.Open("", obs.TraceID{}, cfg); !errors.Is(err, ErrDraining) {
		t.Fatalf("Open while draining = %v, want ErrDraining", err)
	}
	if _, _, err := mgr.Resume("dup", obs.TraceID{}, cfg); !errors.Is(err, ErrDraining) {
		t.Fatalf("Resume while draining = %v, want ErrDraining", err)
	}
	if _, err := mgr.Detach(sess, "cleanup"); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleStoreName pins the backend names stamped on wide events.
func TestLifecycleStoreName(t *testing.T) {
	m, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.StoreName() != "mem" {
		t.Fatalf("StoreName = %q, want mem", m.StoreName())
	}
}
