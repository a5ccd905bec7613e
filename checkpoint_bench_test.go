package streamcover

// Checkpoint codec rungs: the SCCKPT1 encode and decode of every
// snapshottable algorithm's state, on the serving benchmark's shape
// (planted n=300, m=4000, opt=8, random order, seed 1) at each of
// churn-alg1's four evenly spaced detach cuts. A detach pays the encode and
// a resume the decode, so these are the codec's share of the serving path.
// SetBytes makes MB/s the checkpoint bytes coded per second.

import (
	"bytes"
	"fmt"
	"testing"

	"streamcover/internal/obs"
	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/stream"
	"streamcover/internal/workload"
	"streamcover/internal/xrand"
)

// ckptCase is one algorithm's state at one cut, with its checkpoint.
type ckptCase struct {
	name string
	cfg  lifecycle.Config
	cut  int
	alg  stream.Algorithm // holds the state at cut
	blob []byte           // its traced SCCKPT1 envelope
}

var ckptTrace = obs.TraceID{0xc4, 0xec, 0x4b, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

// checkpointCases builds the states the rungs code: kk, alg1, alg2, es and a
// 2-copy kk ensemble, each fed in 1024-edge frames (as a session is) up to
// each of the four cuts.
func checkpointCases(b *testing.B) []ckptCase {
	b.Helper()
	const n, m, opt, seed, cuts = 300, 4000, 8, 1, 4
	inst := workload.Planted(xrand.New(seed), n, m, opt, 0).Inst
	edges := stream.Arrange(inst, stream.Random, xrand.New(seed^0x5eed0f0dde55))
	base := lifecycle.Config{N: n, M: m, StreamLen: len(edges), Seed: seed}
	var out []ckptCase
	for _, algo := range []string{"kk", "alg1", "alg2", "es", "ensemble"} {
		cfg := base
		cfg.Algo = algo
		if algo == "ensemble" {
			cfg.Algo, cfg.Copies = "kk", 2
		}
		for i := 1; i <= cuts; i++ {
			cut := len(edges) * i / (cuts + 1)
			alg, err := lifecycle.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for pos := 0; pos < cut; pos += 1024 {
				frame := edges[pos:min(pos+1024, cut)]
				if bp, ok := alg.(stream.BatchProcessor); ok {
					bp.ProcessBatch(frame)
				} else {
					for _, e := range frame {
						alg.Process(e)
					}
				}
			}
			var buf bytes.Buffer
			if err := stream.WriteCheckpointTraced(&buf, cut, ckptTrace, alg); err != nil {
				b.Fatal(err)
			}
			out = append(out, ckptCase{
				name: fmt.Sprintf("%s/cut%d", algo, i),
				cfg:  cfg, cut: cut, alg: alg, blob: buf.Bytes(),
			})
		}
	}
	return out
}

func BenchmarkCheckpointEncode(b *testing.B) {
	for _, c := range checkpointCases(b) {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(int64(len(c.blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := stream.WriteCheckpointTraced(&buf, c.cut, ckptTrace, c.alg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointDecode restores each checkpoint into a freshly built
// instance. The instances are built in batches with the timer stopped, so
// only ReadCheckpointTraced is timed.
func BenchmarkCheckpointDecode(b *testing.B) {
	const batch = 32
	for _, c := range checkpointCases(b) {
		b.Run(c.name, func(b *testing.B) {
			fresh := make([]stream.Algorithm, batch)
			b.SetBytes(int64(len(c.blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				b.StopTimer()
				k := min(batch, b.N-i)
				for j := range fresh[:k] {
					alg, err := lifecycle.Build(c.cfg)
					if err != nil {
						b.Fatal(err)
					}
					fresh[j] = alg
				}
				b.StartTimer()
				for _, alg := range fresh[:k] {
					pos, trace, err := stream.ReadCheckpointTraced(bytes.NewReader(c.blob), alg)
					if err != nil || pos != c.cut || trace != ckptTrace {
						b.Fatalf("decode: pos %d trace %v err %v", pos, trace, err)
					}
				}
			}
		})
	}
}
