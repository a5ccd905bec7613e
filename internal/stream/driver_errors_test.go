package stream

// Table-driven error-path coverage for the drivers over a stream whose pass
// can fail mid-replay: sticky source errors landing on every driver-batch
// geometry (first edge, mid-batch, exactly on a batch edge, near the end),
// checkpoint boundaries coinciding with batch edges, and ErrShortStream
// propagation — through the driver's error return on resume and through
// Result.Err when the sticky pass error itself is a truncation.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"streamcover/internal/xrand"
)

// faultStream is a scripted Stream + ErrReporter: it replays its edges in
// order and fails with a sticky error once position failAt is reached
// (failAt < 0 disables the fault). It has no NextBatch, so a batched
// algorithm is fed through the driver's scratch buffer.
type faultStream struct {
	edges  []Edge
	failAt int
	ferr   error
	pos    int
	err    error
}

func (s *faultStream) Len() int   { return len(s.edges) }
func (s *faultStream) Reset()     { s.pos, s.err = 0, nil }
func (s *faultStream) Err() error { return s.err }

func (s *faultStream) Next() (Edge, bool) {
	if s.err != nil {
		return Edge{}, false
	}
	if s.failAt >= 0 && s.pos >= s.failAt {
		s.err = s.ferr
		return Edge{}, false
	}
	if s.pos >= len(s.edges) {
		return Edge{}, false
	}
	e := s.edges[s.pos]
	s.pos++
	return e, true
}

var errBoom = errors.New("scripted decode fault")

// batchHashAlg is hashAlg on the BatchProcessor driver path, asking for
// batches of batch edges so tests can place faults and checkpoints on the
// driver's batch edges.
type batchHashAlg struct {
	*hashAlg
	batch int
}

func newBatchHashAlg(n, batch int) *batchHashAlg {
	return &batchHashAlg{hashAlg: newHashAlg(n), batch: batch}
}

func (a *batchHashAlg) ProcessBatch(edges []Edge) {
	for _, e := range edges {
		a.Process(e)
	}
}

func (a *batchHashAlg) BatchSize() int { return a.batch }

// TestStickyErrorThroughDrivers walks the fault position across every
// driver-batch geometry and demands that the consumer sees exactly the
// clean prefix, then the sticky error — through Next, and through Run's
// Result.Err on the per-edge and the BatchProcessor driver paths — and that
// Reset re-arms the pass.
func TestStickyErrorThroughDrivers(t *testing.T) {
	const n, m, batch = 10, 10, 64
	edges := randomEdges(xrand.New(7), n, m, 1000)
	cases := []struct {
		name   string
		failAt int
	}{
		{"first-edge", 0},
		{"second-edge", 1},
		{"batch-edge-minus-one", batch - 1},
		// Fault exactly on a batch edge: the batch fills completely, and
		// the next one comes back empty with the error.
		{"batch-edge", batch},
		{"batch-edge-plus-one", batch + 1},
		{"mid-batch", 2*batch + 17},
		{"third-batch-edge", 3 * batch},
		{"near-end", 999},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &faultStream{edges: edges, failAt: tc.failAt, ferr: errBoom}
			count := 0
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				count++
			}
			if count != tc.failAt || !errors.Is(s.Err(), errBoom) {
				t.Fatalf("Next pass consumed %d edges (want %d), Err=%v", count, tc.failAt, s.Err())
			}
			s.Reset()
			if s.Err() != nil {
				t.Fatalf("Err after Reset = %v", s.Err())
			}

			want := RunEdges(newHashAlg(n), edges[:tc.failAt])
			for name, alg := range map[string]Algorithm{
				"per-edge": newHashAlg(n),
				"batched":  newBatchHashAlg(n, batch),
			} {
				res := Run(alg, s)
				if !errors.Is(res.Err, errBoom) || res.Edges != tc.failAt {
					t.Fatalf("%s Run: Edges=%d Err=%v, want %d edges and errBoom", name, res.Edges, res.Err, tc.failAt)
				}
				if !want.Cover.Equal(res.Cover) {
					t.Fatalf("%s Run saw a different prefix than the clean %d edges", name, tc.failAt)
				}
			}
		})
	}
}

// TestShortStreamThroughResultErr covers a source whose sticky pass error
// is itself a truncation: Run must report it through Result.Err as an
// ErrShortStream, not mistake the pass for a clean short stream.
func TestShortStreamThroughResultErr(t *testing.T) {
	const n, m = 10, 10
	edges := randomEdges(xrand.New(8), n, m, 200)
	truncated := fmt.Errorf("%w: backing file ended at edge 150", ErrShortStream)
	s := &faultStream{edges: edges, failAt: 150, ferr: truncated}
	for _, alg := range []Algorithm{newHashAlg(n), newBatchHashAlg(n, 64)} {
		res := Run(alg, s)
		if !errors.Is(res.Err, ErrShortStream) {
			t.Fatalf("Result.Err=%v, want ErrShortStream", res.Err)
		}
		if res.Edges != 150 {
			t.Fatalf("Edges=%d, want the clean prefix 150", res.Edges)
		}
	}
}

// TestRunCheckpointedFromErrorPaths drives resume against short streams,
// faulted skips and bad positions.
func TestRunCheckpointedFromErrorPaths(t *testing.T) {
	const n, m = 10, 10
	edges := randomEdges(xrand.New(9), n, m, 500)
	cases := []struct {
		name    string
		stream  func() Stream
		from    int
		wantErr error
	}{
		{
			name:    "resume-past-end-slice",
			stream:  func() Stream { return NewSlice(edges) },
			from:    len(edges) + 1,
			wantErr: ErrShortStream,
		},
		{
			// A stream with neither SkipTo nor NextBatch: the skip falls
			// back to Next.
			name:    "resume-past-end-next-only",
			stream:  func() Stream { return &faultStream{edges: edges, failAt: -1} },
			from:    len(edges) + 1,
			wantErr: ErrShortStream,
		},
		{
			name:    "fault-inside-skipped-prefix",
			stream:  func() Stream { return &faultStream{edges: edges, failAt: 100, ferr: errBoom} },
			from:    200,
			wantErr: errBoom,
		},
		{
			name: "truncation-inside-skipped-prefix",
			stream: func() Stream {
				ferr := fmt.Errorf("%w: ended early", ErrShortStream)
				return &faultStream{edges: edges, failAt: 100, ferr: ferr}
			},
			from:    200,
			wantErr: ErrShortStream,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunCheckpointedFrom(newHashAlg(n), tc.stream(), CheckpointPolicy{}, tc.from)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err=%v, want %v", err, tc.wantErr)
			}
		})
	}

	t.Run("negative-resume-position", func(t *testing.T) {
		if _, err := RunCheckpointedFrom(newHashAlg(n), NewSlice(edges), CheckpointPolicy{}, -1); err == nil {
			t.Fatal("negative resume position accepted")
		}
	})
}

// TestCheckpointBoundaryAtBatchEdge takes checkpoints whose interval is
// exactly the driver's batch length (and a divisor and a multiple of it),
// so every checkpoint boundary lands on a batch edge of the scratch buffer.
// Each sampled checkpoint must restore and resume to the same final state
// as the uninterrupted run.
func TestCheckpointBoundaryAtBatchEdge(t *testing.T) {
	const n, m, batch = 12, 12, 64
	edges := randomEdges(xrand.New(10), n, m, 10*batch)
	want := RunEdges(newHashAlg(n), edges)

	for _, every := range []int{batch, batch / 2, 2 * batch} {
		t.Run(fmt.Sprintf("every-%d", every), func(t *testing.T) {
			var positions []int
			var ckpts [][]byte
			pol := CheckpointPolicy{
				Every: every,
				Sink: func(pos int, ck []byte) error {
					positions = append(positions, pos)
					ckpts = append(ckpts, append([]byte(nil), ck...))
					return nil
				},
			}
			s := &faultStream{edges: edges, failAt: -1}
			res, err := RunCheckpointed(newBatchHashAlg(n, batch), s, pol)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cover.Certificate[0] != want.Cover.Certificate[0] {
				t.Fatal("checkpointed batched run diverged from direct run")
			}
			if len(positions) == 0 {
				t.Fatal("no checkpoints taken")
			}
			for i, pos := range positions {
				if pos%every != 0 {
					t.Fatalf("checkpoint %d at position %d, not a multiple of %d", i, pos, every)
				}
			}
			// Resume from every sampled checkpoint; all must converge on
			// the uninterrupted result.
			for i, ck := range ckpts {
				resumed := newBatchHashAlg(n, batch)
				pos, err := ReadCheckpoint(bytes.NewReader(ck), resumed)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", i, err)
				}
				if pos != positions[i] {
					t.Fatalf("checkpoint %d: pos %d want %d", i, pos, positions[i])
				}
				got, err := RunCheckpointedFrom(resumed, s, CheckpointPolicy{}, pos)
				if err != nil {
					t.Fatalf("resume from %d: %v", pos, err)
				}
				if got.Cover.Certificate[0] != want.Cover.Certificate[0] {
					t.Fatalf("resume from %d diverged from direct run", pos)
				}
			}
		})
	}
}
