package streamcover

// Guards for the performance architecture (DESIGN.md "Performance
// architecture"): the batched driver must be observably identical to the
// per-edge driver, and the steady-state edge loop of every algorithm must be
// allocation-free. Together with golden_test.go these hold the hot-path
// representation work to "faster, not different".

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"streamcover/internal/obs"
	"streamcover/internal/space"
	"streamcover/internal/stream"
)

// attachSink points alg's decision-event emissions at a sink from hub (every
// streaming algorithm implements SetObs; tests use private hubs, never the
// process-global one).
func attachSink(t *testing.T, hub *obs.Hub, alg Algorithm) {
	t.Helper()
	a, ok := alg.(interface{ SetObs(*obs.Sink) })
	if !ok {
		t.Fatalf("%T does not implement SetObs", alg)
	}
	a.SetObs(hub.Sink(obs.AlgoOf(alg)))
}

// perEdgeOnly hides ProcessBatch from the driver, forcing stream.Run down
// the per-edge Process path while still exposing the space report.
type perEdgeOnly struct {
	stream.Algorithm
	space.Reporter
}

// perfCase builds one (algorithm, order) run. The concrete algorithm is
// returned alongside so tests can reach Trace and coverage accessors.
func perfCase(alg string, order Order) (Algorithm, []Edge) {
	const n, m, opt = 300, 4000, 8
	w := PlantedWorkload(NewRand(11), n, m, opt, 0)
	edges := Arrange(w.Inst, order, NewRand(23))
	switch alg {
	case "kk":
		return NewKK(n, m, NewRand(42)), edges
	case "alg1":
		return NewRandomOrder(n, m, len(edges), NewRand(42)), edges
	case "alg2":
		return NewAdversarial(n, m, 40, NewRand(42)), edges
	default:
		panic("unknown algorithm " + alg)
	}
}

// batchSized drives an algorithm's ProcessBatch in chunks of size edges:
// the driver honours stream.BatchSizer, and a non-positive size leaves it at
// its default, stream.BatchSize.
type batchSized struct {
	batchAlgorithm
	size int
}

type batchAlgorithm interface {
	stream.Algorithm
	stream.BatchProcessor
	space.Reporter
}

func (b batchSized) BatchSize() int { return b.size }

// TestBatchedMatchesPerEdge drives every algorithm over every arrival order
// edge at a time and through ProcessBatch in three batch sizes — RunEdges'
// default (stream.BatchSize, 4096), 1, and a served session's 1024-edge
// frame — with identical seeds, and asserts byte-identical observable
// output: chosen sets, certificate, edge count, space report, the
// decision-event stream, and (for Algorithm 1) the full execution trace.
func TestBatchedMatchesPerEdge(t *testing.T) {
	for _, algName := range []string{"kk", "alg1", "alg2"} {
		for _, order := range Orders() {
			t.Run(algName+"/"+order.String(), func(t *testing.T) {
				// Each run gets a private hub so the decision-event streams
				// (which the batched contract also covers) can be compared.
				const ringCap = 1 << 18
				perEdgeAlg, edges := perfCase(algName, order)
				perEdgeHub := obs.NewHub(ringCap)
				attachSink(t, perEdgeHub, perEdgeAlg)
				wrapped := perEdgeOnly{perEdgeAlg, perEdgeAlg.(space.Reporter)}
				if _, ok := Algorithm(wrapped).(stream.BatchProcessor); ok {
					t.Fatal("perEdgeOnly wrapper leaks ProcessBatch")
				}
				perEdge := RunEdges(wrapped, edges)
				evB := perEdgeHub.Ring().Events()

				for _, size := range []int{0, 1, 1024} {
					batchedAlg, _ := perfCase(algName, order)
					bp, ok := batchedAlg.(batchAlgorithm)
					if !ok {
						t.Fatalf("%s does not implement stream.BatchProcessor", algName)
					}
					batchedHub := obs.NewHub(ringCap)
					attachSink(t, batchedHub, batchedAlg)
					batched := RunEdges(batchSized{bp, size}, edges)

					if !slices.Equal(batched.Cover.Sets, perEdge.Cover.Sets) {
						t.Errorf("batch %d: cover sets differ: batched %v, per-edge %v",
							size, batched.Cover.Sets, perEdge.Cover.Sets)
					}
					if !slices.Equal(batched.Cover.Certificate, perEdge.Cover.Certificate) {
						t.Errorf("batch %d: certificates differ", size)
					}
					if batched.Edges != perEdge.Edges {
						t.Errorf("batch %d: edge counts differ: batched %d, per-edge %d", size, batched.Edges, perEdge.Edges)
					}
					if batched.Space != perEdge.Space {
						t.Errorf("batch %d: space reports differ: batched %+v, per-edge %+v", size, batched.Space, perEdge.Space)
					}
					if algName == "alg1" {
						ta := batchedAlg.(*RandomOrderAlg).Trace()
						tb := perEdgeAlg.(*RandomOrderAlg).Trace()
						if !reflect.DeepEqual(ta, tb) {
							t.Errorf("batch %d: traces differ:\nbatched:  %+v\nper-edge: %+v", size, ta, tb)
						}
					}
					// The decision-event streams must match event for event.
					if a, b := batchedHub.Ring().Recorded(), perEdgeHub.Ring().Recorded(); a != b {
						t.Errorf("batch %d: decision-event counts differ: batched %d, per-edge %d", size, a, b)
					}
					evA := batchedHub.Ring().Events()
					if !reflect.DeepEqual(evA, evB) {
						n := min(len(evA), len(evB))
						for i := 0; i < n; i++ {
							if evA[i] != evB[i] {
								t.Fatalf("batch %d: decision event %d differs:\nbatched:  %+v\nper-edge: %+v", size, i, evA[i], evB[i])
							}
						}
						t.Fatalf("batch %d: decision traces differ in length: batched %d, per-edge %d", size, len(evA), len(evB))
					}
				}
			})
		}
	}
}

// coverageReporter is the part of the algorithms the alloc guard uses to
// detect the steady state (every element holds a witness).
type coverageReporter interface{ CoveredCount() int }

// TestSteadyStateProcessBatchAllocs asserts the per-edge hot loop of every
// algorithm performs zero heap allocations once warm: after the stream has
// been absorbed (and, where coverage converges, every element is covered),
// replaying the whole edge sequence through ProcessBatch must not allocate.
// This is the property the pooled scratch + dense-state representation
// exists to provide — violating it is a performance regression even when
// the output is still correct.
func TestSteadyStateProcessBatchAllocs(t *testing.T) {
	// The guard runs twice: bare (no sink, the nil fast path) and with a
	// live decision sink attached, which must be just as allocation-free —
	// emissions are atomic adds plus writes into the preallocated ring, even
	// when the ring wraps (DESIGN.md §4c).
	for _, withObs := range []bool{false, true} {
		name := "bare"
		if withObs {
			name = "obs"
		}
		t.Run(name, func(t *testing.T) {
			testSteadyStateAllocs(t, withObs)
		})
	}
}

func testSteadyStateAllocs(t *testing.T, withObs bool) {
	const n, m, opt = 100, 600, 6
	w := PlantedWorkload(NewRand(5), n, m, opt, 0)
	edges := Arrange(w.Inst, RandomOrder, NewRand(9))

	for _, tc := range []struct {
		name string
		alg  Algorithm
		// wantFullCoverage: the algorithm keeps sampling on replays, so it
		// must reach CoveredCount == n (after which replays are pure reads).
		wantFullCoverage bool
	}{
		{"kk", NewKK(n, m, NewRand(1)), true},
		{"alg1", NewRandomOrder(n, m, len(edges), NewRand(2)), false},
		{"alg2", NewAdversarial(n, m, 20, NewRand(3)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if withObs {
				attachSink(t, obs.NewHub(0), tc.alg)
			}
			bp := tc.alg.(stream.BatchProcessor)
			for pass := 0; pass < 500; pass++ {
				bp.ProcessBatch(edges)
				if !tc.wantFullCoverage {
					break
				}
				if cr := tc.alg.(coverageReporter); cr.CoveredCount() == n {
					break
				}
			}
			if tc.wantFullCoverage {
				if got := tc.alg.(coverageReporter).CoveredCount(); got != n {
					t.Fatalf("warm-up never converged: %d/%d elements covered", got, n)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() {
				bp.ProcessBatch(edges)
			}); allocs != 0 {
				t.Errorf("steady-state ProcessBatch allocates %.2f times per replay, want 0", allocs)
			}
		})
	}
}

// TestFileDecisionTraceMatchesDirect runs every algorithm over the same
// stream twice — directly from the edge slice and through a stream File —
// with private obs hubs, and asserts the decision-event streams are
// identical event for event. On-disk ingestion must not change what the
// algorithm observes, only where the bytes were decoded from.
func TestFileDecisionTraceMatchesDirect(t *testing.T) {
	const ringCap = 1 << 18
	dir := t.TempDir()
	for _, algName := range []string{"kk", "alg1", "alg2"} {
		t.Run(algName, func(t *testing.T) {
			directAlg, edges := perfCase(algName, RandomOrder)
			directHub := obs.NewHub(ringCap)
			attachSink(t, directHub, directAlg)
			direct := RunEdges(directAlg, edges)

			var buf bytes.Buffer
			if err := EncodeStream(&buf, StreamHeader{N: 300, M: 4000, E: len(edges)}, edges); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, algName+".scstrm")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			fs, err := OpenStreamFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close()

			fileAlg, _ := perfCase(algName, RandomOrder)
			fileHub := obs.NewHub(ringCap)
			attachSink(t, fileHub, fileAlg)
			file := Run(fileAlg, fs)
			if file.Err != nil {
				t.Fatal(file.Err)
			}

			if !slices.Equal(direct.Cover.Sets, file.Cover.Sets) || direct.Space != file.Space {
				t.Fatalf("file result differs: %v/%+v vs %v/%+v",
					direct.Cover.Sets, direct.Space, file.Cover.Sets, file.Space)
			}
			evA, evB := directHub.Ring().Events(), fileHub.Ring().Events()
			if !reflect.DeepEqual(evA, evB) {
				t.Fatalf("decision traces differ: direct %d events, file %d", len(evA), len(evB))
			}
		})
	}
}

// TestSteadyStateFileReplayAllocs extends the allocation guard to the
// on-disk ingestion path: a lazily-verified stream File drained
// batch-by-batch into ProcessBatch. After the first pass (which pays the CRC
// fold and sizes the batch buffer), a whole replay — Reset, windowed
// decode, NextBatch, algorithm — must perform zero heap allocations. This
// is the property the reusable decode window and batch buffer exist to
// provide.
func TestSteadyStateFileReplayAllocs(t *testing.T) {
	const n, m, opt = 100, 600, 6
	w := PlantedWorkload(NewRand(5), n, m, opt, 0)
	edges := Arrange(w.Inst, RandomOrder, NewRand(9))

	var buf bytes.Buffer
	if err := EncodeStream(&buf, StreamHeader{N: n, M: m, E: len(edges)}, edges); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "replay.scstrm")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	fs, err := OpenStreamFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	alg := NewKK(n, m, NewRand(1))
	var bp stream.BatchProcessor = alg
	replay := func() {
		fs.Reset()
		for {
			b := fs.NextBatch(1 << 20)
			if len(b) == 0 {
				break
			}
			bp.ProcessBatch(b)
		}
	}
	// Warm up: converge coverage (replays become pure reads) and let the
	// File finish its verifying pass.
	for pass := 0; pass < 500; pass++ {
		replay()
		if alg.CoveredCount() == n {
			break
		}
	}
	if got := alg.CoveredCount(); got != n {
		t.Fatalf("warm-up never converged: %d/%d elements covered", got, n)
	}
	if err := StreamErr(fs); err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Errorf("steady-state on-disk replay allocates %.2f times per pass, want 0", allocs)
	}
}
