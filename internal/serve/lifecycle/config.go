package lifecycle

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"streamcover/internal/adversarial"
	"streamcover/internal/core"
	"streamcover/internal/elementsampling"
	"streamcover/internal/kk"
	"streamcover/internal/stream"
	"streamcover/internal/xrand"
)

// Config is the shape of one session's algorithm, carried verbatim in
// hello and resume frames. Two sessions with equal Configs build
// bit-identical algorithm instances, which is what makes server-side runs
// reproducible against local ones and resumes checkable against their
// checkpoints.
type Config struct {
	// Algo names the algorithm: kk, alg1, alg2 or es.
	Algo string
	// N and M are the universe size and set count.
	N, M int
	// StreamLen is the total stream length (alg1's schedule needs it).
	StreamLen int
	// Seed derives every copy's generator deterministically.
	Seed uint64
	// Copies > 1 wraps the algorithm in a stream.Ensemble of independently
	// seeded copies; 0 and 1 both mean a single instance.
	Copies int
	// Alpha is the approximation target for alg2/es; 0 picks 2√n.
	Alpha float64
}

// validate rejects shapes no factory could build.
func (c Config) validate() error {
	if c.Algo == "" {
		return errors.New("serve: config names no algorithm")
	}
	if c.N <= 0 || c.M <= 0 {
		return fmt.Errorf("serve: invalid shape n=%d m=%d", c.N, c.M)
	}
	if c.StreamLen < 0 || c.Copies < 0 {
		return fmt.Errorf("serve: invalid config (streamLen=%d copies=%d)", c.StreamLen, c.Copies)
	}
	return nil
}

// ResolvedAlpha is the approximation target alg2 and es run with: Alpha,
// or 2√n when Alpha is 0.
func (c Config) ResolvedAlpha() float64 {
	if c.Alpha > 0 {
		return c.Alpha
	}
	return 2 * math.Sqrt(float64(c.N))
}

// factory builds one algorithm copy for a session configuration, drawing
// coins from rng.
type factory func(cfg Config, rng *xrand.Rand) stream.Algorithm

// registry is the one table that turns an algorithm name into an
// instance, for served sessions and the offline tools alike. It is never
// written after initialization.
var registry = map[string]factory{
	"kk": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
		return kk.New(cfg.N, cfg.M, rng)
	},
	"alg1": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
		return core.New(cfg.N, cfg.M, cfg.StreamLen, core.DefaultParams(cfg.N, cfg.M), rng)
	},
	"alg2": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
		return adversarial.New(cfg.N, cfg.M, cfg.ResolvedAlpha(), rng)
	},
	"es": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
		return elementsampling.New(cfg.N, cfg.M, cfg.ResolvedAlpha(), rng)
	},
}

// Algorithms lists the algorithm names Build accepts, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookup validates cfg and returns its algorithm's factory.
func lookup(cfg Config) (factory, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f, ok := registry[cfg.Algo]
	if !ok {
		return nil, fmt.Errorf("serve: unknown algorithm %q (known: %v)", cfg.Algo, Algorithms())
	}
	return f, nil
}

// Build constructs the algorithm for cfg: one copy drawing its coins from
// xrand.New(cfg.Seed) itself (so a served single-copy run is bit-identical
// to a local run with the same seed, golden fingerprints included), or an
// Ensemble of cfg.Copies copies, copy i drawing from the i-th Split of
// that generator. The ensemble keeps its default worker mode; a caller
// that must not start goroutines pins it with SetParallelism.
func Build(cfg Config) (stream.Algorithm, error) {
	f, err := lookup(cfg)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	if cfg.Copies <= 1 {
		return f(cfg, rng), nil
	}
	copies := make([]stream.Algorithm, cfg.Copies)
	for i := range copies {
		copies[i] = f(cfg, rng.Split())
	}
	return stream.NewEnsemble(copies...), nil
}

// BuildCopy constructs one copy of cfg's algorithm drawing its coins from
// rng; cfg.Seed and cfg.Copies are not read. It serves callers that derive
// each run's generator themselves, as scsweep does per repetition.
func BuildCopy(cfg Config, rng *xrand.Rand) (stream.Algorithm, error) {
	f, err := lookup(cfg)
	if err != nil {
		return nil, err
	}
	return f(cfg, rng), nil
}
