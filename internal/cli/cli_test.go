package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamcover/internal/serve/lifecycle"
	"streamcover/internal/stream"
)

func genFixture(t *testing.T, opt GenerateOptions) string {
	t.Helper()
	if opt.Out == "" {
		opt.Out = filepath.Join(t.TempDir(), "s.scs")
	}
	var out bytes.Buffer
	if err := Generate(opt, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote") {
		t.Fatalf("summary %q", out.String())
	}
	return opt.Out
}

func defaultGen() GenerateOptions {
	return GenerateOptions{
		Workload: "planted", N: 120, M: 600, Opt: 6,
		MinSize: 2, MaxSize: 10, Mean: 6, S: 1.1, P: 0.05, Heavy: 3, Factor: 1,
		Order: "random", Seed: 1,
	}
}

func TestGenerateAllWorkloads(t *testing.T) {
	for _, kind := range []string{"planted", "uniform", "zipf", "domset", "heavy", "quadratic"} {
		t.Run(kind, func(t *testing.T) {
			opt := defaultGen()
			opt.Workload = kind
			if kind == "quadratic" {
				opt.N = 30
			}
			genFixture(t, opt)
		})
	}
}

func TestGenerateErrors(t *testing.T) {
	opt := defaultGen()
	opt.Workload = "nonsense"
	opt.Out = filepath.Join(t.TempDir(), "x.scs")
	if err := Generate(opt, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}

	opt = defaultGen()
	opt.Order = "sideways"
	opt.Out = filepath.Join(t.TempDir(), "x.scs")
	if err := Generate(opt, &bytes.Buffer{}); err == nil {
		t.Error("unknown order accepted")
	}

	opt = defaultGen()
	opt.Opt = 0 // generator panic → error at the tool boundary
	opt.Out = filepath.Join(t.TempDir(), "x.scs")
	if err := Generate(opt, &bytes.Buffer{}); err == nil {
		t.Error("invalid generator parameters accepted")
	}

	opt = defaultGen()
	opt.Out = filepath.Join(t.TempDir(), "missing-dir", "x.scs")
	if err := Generate(opt, &bytes.Buffer{}); err == nil {
		t.Error("unwritable output accepted")
	}
}

func TestReplayEveryAlgorithm(t *testing.T) {
	path := genFixture(t, defaultGen())
	for _, algo := range []string{"kk", "alg1", "alg2", "es", "storeall", "multipass", "fractional"} {
		t.Run(algo, func(t *testing.T) {
			var out bytes.Buffer
			err := Replay(ReplayOptions{In: path, Algo: algo, Seed: 3, Budget: 30}, &out)
			if err != nil {
				t.Fatal(err)
			}
			s := out.String()
			for _, frag := range []string{"stream", "cover", "offline greedy"} {
				if !strings.Contains(s, frag) {
					t.Fatalf("output missing %q:\n%s", frag, s)
				}
			}
		})
	}
}

func TestReplayEnsemble(t *testing.T) {
	path := genFixture(t, defaultGen())
	var out bytes.Buffer
	if err := Replay(ReplayOptions{In: path, Algo: "alg2", Seed: 5, Copies: 4}, &out); err != nil {
		t.Fatal(err)
	}
}

func TestReplayErrors(t *testing.T) {
	if err := Replay(ReplayOptions{In: "/nonexistent", Algo: "kk"}, &bytes.Buffer{}); err == nil {
		t.Error("missing file accepted")
	}
	path := genFixture(t, defaultGen())
	if err := Replay(ReplayOptions{In: path, Algo: "quantum"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestReplayDeterministicOutput(t *testing.T) {
	path := genFixture(t, defaultGen())
	var a, b bytes.Buffer
	if err := Replay(ReplayOptions{In: path, Algo: "kk", Seed: 9}, &a); err != nil {
		t.Fatal(err)
	}
	if err := Replay(ReplayOptions{In: path, Algo: "kk", Seed: 9}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("nondeterministic tool output:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestReplaySeedsAsServed holds scrun to the served seeding rule that
// golden_serve_test.go pins: for every served algorithm, alone and as a
// 3-copy ensemble, Replay reports the cover size and space of a
// lifecycle.Build run of the same Config. The stream is larger than the
// default fixture, on which kk seeded from xrand.New(7) and from its first
// Split happen to report the same cover and space.
func TestReplaySeedsAsServed(t *testing.T) {
	g := defaultGen()
	g.N, g.M, g.Opt = 300, 4000, 8
	path := genFixture(t, g)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, edges, err := stream.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range lifecycle.Algorithms() {
		for _, copies := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s-copies%d", algo, copies), func(t *testing.T) {
				var out bytes.Buffer
				if err := Replay(ReplayOptions{In: path, Algo: algo, Seed: 7, Copies: copies}, &out); err != nil {
					t.Fatal(err)
				}
				alg, err := lifecycle.Build(lifecycle.Config{
					Algo: algo, N: hdr.N, M: hdr.M, StreamLen: hdr.E, Seed: 7, Copies: copies,
				})
				if err != nil {
					t.Fatal(err)
				}
				res := stream.RunEdges(alg, edges)
				for _, want := range []string{
					fmt.Sprintf("cover     %d sets ", res.Cover.Size()),
					fmt.Sprintf("space     %v\n", res.Space),
				} {
					if !strings.Contains(out.String(), want) {
						t.Errorf("scrun output lacks the served run's %q:\n%s", want, out.String())
					}
				}
			})
		}
	}
}
