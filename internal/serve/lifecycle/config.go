package lifecycle

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

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
	// Algo names a registered algorithm (kk, alg1, alg2, es by default).
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

// alpha resolves the approximation target, defaulting to 2√n like scrun.
func (c Config) alpha() float64 {
	if c.Alpha > 0 {
		return c.Alpha
	}
	return 2 * math.Sqrt(float64(c.N))
}

// Factory builds one algorithm copy for a session configuration, drawing
// coins from rng (already split per copy).
type Factory func(cfg Config, rng *xrand.Rand) stream.Algorithm

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{
		"kk": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
			return kk.New(cfg.N, cfg.M, rng)
		},
		"alg1": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
			return core.New(cfg.N, cfg.M, cfg.StreamLen, core.DefaultParams(cfg.N, cfg.M), rng)
		},
		"alg2": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
			return adversarial.New(cfg.N, cfg.M, cfg.alpha(), rng)
		},
		"es": func(cfg Config, rng *xrand.Rand) stream.Algorithm {
			return elementsampling.New(cfg.N, cfg.M, cfg.alpha(), rng)
		},
	}
)

// Register adds (or replaces) an algorithm factory under the given name, so
// embedders can serve their own streaming algorithms through the same
// session manager.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("serve: Register needs a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = f
}

// Algorithms lists the registered algorithm names, sorted.
func Algorithms() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build constructs the session algorithm for cfg: one copy seeded straight
// from cfg.Seed (so a served single-copy run is bit-identical to a local
// run with the same seed, golden fingerprints included), or an Ensemble of
// cfg.Copies copies each seeded from one Split of the seed generator —
// mirroring scrun's -copies seeding. The ensemble runs its copies one
// after another on the caller's goroutine: its workers would stop only at
// Finish, so a session that detaches would leave them blocked, holding
// every copy's state.
func Build(cfg Config) (stream.Algorithm, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	regMu.RLock()
	f, ok := registry[cfg.Algo]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown algorithm %q (registered: %v)", cfg.Algo, Algorithms())
	}
	rng := xrand.New(cfg.Seed)
	if cfg.Copies <= 1 {
		return f(cfg, rng), nil
	}
	copies := make([]stream.Algorithm, cfg.Copies)
	for i := range copies {
		copies[i] = f(cfg, rng.Split())
	}
	ens := stream.NewEnsemble(copies...)
	ens.SetParallelism(1)
	return ens, nil
}
