package lifecycle

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamcover/internal/obs"
	"streamcover/internal/serve/store"
	"streamcover/internal/setcover"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
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

// feed pushes edges through the Reserve/Enqueue API in MaxBatch-sized
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

// gatedDeleteStore is a MemStore whose Delete announces its token on
// deleting and then waits for proceed before it deletes.
type gatedDeleteStore struct {
	*store.MemStore
	deleting chan string
	proceed  chan struct{}
}

func (s *gatedDeleteStore) Delete(token string) error {
	s.deleting <- token
	<-s.proceed
	return s.MemStore.Delete(token)
}

// TestLifecycleFinishHoldsTokenUntilDeleted: a resume of a token whose
// session is finishing must not restore the detach checkpoint Finish is
// about to delete. While Finish deletes, the token is still claimed and
// the resume meets ErrSessionActive; after it, ErrUnknownSession.
func TestLifecycleFinishHoldsTokenUntilDeleted(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)
	st := &gatedDeleteStore{MemStore: store.NewMemStore(), deleting: make(chan string), proceed: make(chan struct{})}
	mgr, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := mustOpen(t, mgr, "racing", cfg)
	feed(sess, edges[:len(edges)/2])
	if _, err := mgr.Detach(sess, "test-detach"); err != nil {
		t.Fatal(err)
	}
	sess, pos, err := mgr.Resume("racing", obs.TraceID{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(sess, edges[pos:])
	finished := make(chan error)
	go func() {
		_, err := mgr.Finish(sess)
		finished <- err
	}()
	<-st.deleting
	_, rpos, rerr := mgr.Resume("racing", obs.TraceID{}, cfg)
	close(st.proceed)
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
	if rerr == nil {
		t.Fatalf("a resume during Finish restored the finished session at position %d", rpos)
	}
	if !errors.Is(rerr, ErrSessionActive) {
		t.Fatalf("resume during Finish = %v, want ErrSessionActive", rerr)
	}
	if _, _, err := mgr.Resume("racing", obs.TraceID{}, cfg); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("resume after Finish = %v, want ErrUnknownSession", err)
	}
}

// TestLifecycleSessionsRunNoGoroutines pins one goroutine per session: a
// session applies each batch on the goroutine feeding it, so opening and
// feeding sessions starts no goroutine of their own. While 16 sessions are
// open, no goroutine but the test's own may run, or have been started by,
// non-test code of this package. (Counting goroutines instead would also
// see unrelated ones come and go, such as the runtime's finalizer.)
func TestLifecycleSessionsRunNoGoroutines(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, 16)
	for i := range sessions {
		s := mustOpen(t, mgr, "", cfg)
		s.Enqueue(copy(s.Reserve(), edges))
		sessions[i] = s
	}
	if g := lifecycleGoroutine(); g != "" {
		t.Fatalf("a goroutine runs this package's code with %d sessions open:\n%s", len(sessions), g)
	}
	for i, s := range sessions {
		if i%2 == 0 {
			if pos, err := mgr.Detach(s, "test-detach"); err != nil || pos != len(edges) {
				t.Fatalf("Detach %s: pos=%d err=%v, want pos %d", s.Token(), pos, err, len(edges))
			}
		} else if res, err := mgr.Finish(s); err != nil || res.Edges != len(edges) {
			t.Fatalf("Finish %s: edges=%d err=%v, want %d", s.Token(), res.Edges, err, len(edges))
		}
	}
	if mgr.Active() != 0 {
		t.Fatalf("Active = %d after retiring every session", mgr.Active())
	}
}

// TestLifecycleEnsembleDetachLeavesNoGoroutines detaches a 4-copy session
// twenty times on one manager. A served ensemble runs its copies on the
// session's goroutine, so no worker is left blocked after a detach,
// holding every copy's state. GOMAXPROCS is raised so that an ensemble
// choosing its own parallelism would start workers. A resumed session
// still finishes with the fingerprint of a local run.
func TestLifecycleEnsembleDetachLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := testConfig()
	cfg.Copies = 4
	edges := testEdges(cfg)
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	half := len(edges) / 2
	cycle := func(i int) {
		s := mustOpen(t, mgr, fmt.Sprintf("ens-%d", i), cfg)
		feed(s, edges[:half])
		if _, err := mgr.Detach(s, "test-detach"); err != nil {
			t.Fatal(err)
		}
	}
	cycle(-1)
	base := runtime.NumGoroutine()
	const cycles = 20
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	if got := runtime.NumGoroutine(); got > base+2 {
		t.Fatalf("%d goroutines after %d detached 4-copy sessions, %d before", got, cycles, base)
	}

	s, pos, err := mgr.Resume("ens-7", obs.TraceID{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(s, edges[pos:])
	got, err := mgr.Finish(s)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := stream.RunEdges(alg, edges)
	want := Result{Edges: ref.Edges, Cover: ref.Cover, Space: ref.Space}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed ensemble fingerprint %016x, local run %016x", got.Fingerprint(), want.Fingerprint())
	}
}

// TestLifecycleEnsembleSessionsStartNoGoroutines: an opened or a resumed
// Copies > 1 session runs its copies on the goroutine that feeds it, so
// feeding it starts no ensemble worker, even at a GOMAXPROCS that would
// give an ensemble left to choose its own parallelism four of them.
// Detach stops an ensemble's workers either way, so the detach test above
// cannot see a session that starts them.
func TestLifecycleEnsembleSessionsStartNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := testConfig()
	cfg.Copies = 4
	edges := testEdges(cfg)
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	s := mustOpen(t, mgr, "ens", cfg)
	feed(s, edges[:len(edges)/2])
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("an opened 4-copy session runs %d goroutines beyond the %d before it", got-base, base)
	}
	if _, err := mgr.Detach(s, "test-detach"); err != nil {
		t.Fatal(err)
	}
	s, pos, err := mgr.Resume("ens", obs.TraceID{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(s, edges[pos:])
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("a resumed 4-copy session runs %d goroutines beyond the %d before it", got-base, base)
	}
	if _, err := mgr.Finish(s); err != nil {
		t.Fatal(err)
	}
}

// TestLifecycleFinishForgetsCheckpoint runs open → detach → resume →
// finish cycles on one manager: Finish deletes each session's checkpoint,
// so the manager must not go on remembering it as written here.
func TestLifecycleFinishForgetsCheckpoint(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		token := fmt.Sprintf("forget-%d", i)
		s := mustOpen(t, mgr, token, cfg)
		feed(s, edges[:len(edges)/2])
		if _, err := mgr.Detach(s, "test-detach"); err != nil {
			t.Fatal(err)
		}
		s, pos, err := mgr.Resume(token, obs.TraceID{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(s, edges[pos:])
		if _, err := mgr.Finish(s); err != nil {
			t.Fatal(err)
		}
	}
	mgr.ckptMu.Lock()
	left := len(mgr.localCkpt)
	mgr.ckptMu.Unlock()
	if left != 0 {
		t.Fatalf("the manager still remembers %d finished sessions' checkpoints", left)
	}
}

// TestLifecycleRecyclesEdgeBuffers holds a warm session cycle — open, feed,
// finish, one after another on one manager — to under 16 KiB of
// allocation, half the 32 KiB ingest buffer a session would allocate if
// it did not take a stopped session's from the manager's free-list.
func TestLifecycleRecyclesEdgeBuffers(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(i int) {
		s := mustOpen(t, mgr, fmt.Sprintf("cycle-%d", i), cfg)
		feed(s, edges)
		if res, err := mgr.Finish(s); err != nil || res.Edges != len(edges) {
			t.Fatalf("Finish %s: edges=%d err=%v, want %d", s.Token(), res.Edges, err, len(edges))
		}
	}
	cycle(-1) // leaves one buffer on the free-list
	const cycles = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / cycles; got >= 16<<10 {
		t.Fatalf("a warm open/feed/finish cycle allocated %d bytes, want under 16 KiB", got)
	}
}

// TestLifecycleDetachResumeReusesState runs warm cycles of an Algorithm 1
// session at servebench's shape on one manager: open, feed half, Detach,
// Resume, feed the rest, Finish. A detach hands the algorithm's pooled
// working state back once the checkpoint is stored — the detached
// algorithm can no longer snapshot — so the Resume builds from it instead
// of allocating a fresh one (about 40 KB at this shape). A cycle that
// reuses it allocates about 35 KB, and about 55 KB under the race
// detector, whose sync.Pool drops a quarter of what it is given; one that
// allocates a fresh state on every Resume takes over 110 KB.
func TestLifecycleDetachResumeReusesState(t *testing.T) {
	inst := workload.Planted(xrand.New(1), 300, 4000, 8, 0).Inst
	edges := stream.Arrange(inst, stream.Random, xrand.New(1^0x5eed0f0dde55))
	cfg := Config{Algo: "alg1", N: 300, M: 4000, StreamLen: len(edges), Seed: 1}
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	cycle := func(i int) {
		token := fmt.Sprintf("reuse-%d", i)
		s := mustOpen(t, mgr, token, cfg)
		feed(s, edges[:len(edges)/2])
		if _, err := mgr.Detach(s, "test-detach"); err != nil {
			t.Fatal(err)
		}
		if err := s.alg.(stream.Snapshotter).Snapshot(io.Discard); err == nil {
			t.Fatal("a detached session's algorithm still holds its working state")
		}
		s, pos, err := mgr.Resume(token, obs.TraceID{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed(s, edges[pos:])
		res, err := mgr.Finish(s)
		if err != nil {
			t.Fatal(err)
		}
		if fp := res.Fingerprint(); want == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("cycle %d: fingerprint %#x, want %#x", i, fp, want)
		}
	}
	cycle(-1) // warms the pools
	const cycles = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / cycles; got >= 80<<10 {
		t.Fatalf("a warm open/detach/resume/finish cycle allocated %d bytes, want under 80 KiB", got)
	}
}

// TestLifecycleStoppedSessionHasNoBuffer checks that Detach and Finish
// take a session's ingest buffer away: its Reserve returns nil, and the
// next session to open gets the buffer, so a late Reserve on the stopped
// session cannot write into a live one's.
func TestLifecycleStoppedSessionHasNoBuffer(t *testing.T) {
	cfg := testConfig()
	edges := testEdges(cfg)
	mgr, err := NewManager(store.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, detach := range []bool{false, true} {
		s := mustOpen(t, mgr, fmt.Sprintf("stopped-%v", detach), cfg)
		feed(s, edges)
		buf := s.Reserve()
		if detach {
			_, err = mgr.Detach(s, "test-detach")
		} else {
			_, err = mgr.Finish(s)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Reserve(); got != nil {
			t.Fatalf("detach=%v: a stopped session's Reserve returned %d slots, want none", detach, len(got))
		}
		next := mustOpen(t, mgr, fmt.Sprintf("next-%v", detach), cfg)
		if got := next.Reserve(); len(got) != MaxBatch || &got[0] != &buf[0] {
			t.Fatalf("detach=%v: the next session did not take the stopped session's buffer", detach)
		}
		if _, err := mgr.Finish(next); err != nil {
			t.Fatal(err)
		}
	}
}

// lifecycleGoroutine returns the stack of a goroutine other than the
// caller's that has a frame in a non-test function of this package, or was
// started by one, or "" if there is none.
func lifecycleGoroutine() string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Stacks are blank-line separated, the caller's first. Each frame is a
	// function line ("created by F in goroutine N" for the go statement
	// that started the goroutine) and a tab-indented file:line line.
	stacks := strings.Split(string(buf), "\n\n")
	for _, g := range stacks[1:] {
		lines := strings.Split(g, "\n")
		for i := 1; i < len(lines); i++ {
			fn := strings.TrimPrefix(lines[i-1], "created by ")
			if strings.HasPrefix(lines[i], "\t") && strings.HasPrefix(fn, "streamcover/internal/serve/lifecycle.") &&
				!strings.Contains(lines[i], "_test.go:") {
				return g
			}
		}
	}
	return ""
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

// blockingReserveStore is a MemStore whose Reserve reports its token on
// entered, then waits for release to close.
type blockingReserveStore struct {
	*store.MemStore
	entered chan string
	release chan struct{}
}

func (s *blockingReserveStore) Reserve(token string) (bool, error) {
	s.entered <- token
	<-s.release
	return s.MemStore.Reserve(token)
}

// TestLifecycleMintReservesConcurrently: minting holds its lock for the
// counter only, so two minted opens are inside a slow store's Reserve at
// once (a FileStore fsyncs there, a cluster store makes a round trip)
// rather than one queueing behind the other.
func TestLifecycleMintReservesConcurrently(t *testing.T) {
	st := &blockingReserveStore{MemStore: store.NewMemStore(), entered: make(chan string, 2), release: make(chan struct{})}
	mgr, err := NewManager(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	opened := make(chan error, 2)
	for range 2 {
		go func() {
			_, err := mgr.Open("", obs.TraceID{}, testConfig())
			opened <- err
		}()
	}
	var tokens []string
	timeout := time.After(10 * time.Second)
	for len(tokens) < 2 {
		select {
		case tok := <-st.entered:
			tokens = append(tokens, tok)
		case <-timeout:
			close(st.release)
			t.Fatalf("%d of 2 concurrent minted opens reached Reserve within 10 s", len(tokens))
		}
	}
	close(st.release)
	for range 2 {
		if err := <-opened; err != nil {
			t.Fatal(err)
		}
	}
	if tokens[0] == tokens[1] {
		t.Fatalf("both mints reserved %q", tokens[0])
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
	if !obs.Enabled {
		t.Skip("obsoff compiles out the adoption counter")
	}
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
	if !obs.Enabled {
		t.Skip("obsoff compiles out the store byte counter")
	}
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
