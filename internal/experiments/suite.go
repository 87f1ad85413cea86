// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the synthetic benchmark suite: Table I
// (benchmark statistics), Table II (comparison with the contest winners
// and [14]), Table III (feature ablation), Table IV (accuracy vs training
// data), Table V (clip extraction counts), and Fig. 15 (accuracy /
// false-alarm trade-off). See DESIGN.md §5 for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/iccad"
)

// Options configures a suite run.
type Options struct {
	// Scale linearly scales the benchmark extents; hotspot and pattern
	// counts scale with area. 1 reproduces the paper-sized benchmarks.
	Scale float64
	// Workers bounds parallelism everywhere.
	Workers int
	// Seed offsets the benchmark seeds (0 keeps the canonical suite).
	Seed int64
}

// Suite caches generated benchmarks across experiments.
type Suite struct {
	opts Options

	mu      sync.Mutex
	benches map[string]*iccad.Benchmark
}

// NewSuite creates an experiment suite.
func NewSuite(opts Options) *Suite {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	return &Suite{opts: opts, benches: make(map[string]*iccad.Benchmark)}
}

// Bench returns the named benchmark, generating and caching it on first
// use.
func (s *Suite) Bench(name string) (*iccad.Benchmark, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.benches[name]; ok {
		return b, nil
	}
	cfg, ok := iccad.ConfigByName(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
	}
	cfg.Scale = s.opts.Scale
	cfg.Workers = s.opts.Workers
	cfg.Seed += s.opts.Seed
	b := iccad.Generate(cfg)
	s.benches[name] = b
	return b, nil
}

// BenchNames lists the five array benchmarks plus the blind layout, in
// paper order.
func BenchNames() []string {
	names := make([]string, 0, len(iccad.Suite))
	for _, c := range iccad.Suite {
		names = append(names, c.Name)
	}
	return names
}

// config returns the framework configuration for this suite's options.
func (s *Suite) config() core.Config {
	cfg := core.DefaultConfig()
	if s.opts.Workers > 0 {
		cfg.Workers = s.opts.Workers
	}
	return cfg
}

// MethodResult is one table row: a named method's score.
type MethodResult struct {
	Method string
	Score  core.Score
	// TrainTime and EvalTime split the runtime.
	TrainTime, EvalTime time.Duration
}

// runDetector trains and evaluates one framework configuration.
func (s *Suite) runDetector(b *iccad.Benchmark, train []*clip.Pattern, cfg core.Config, name string) (MethodResult, error) {
	t0 := time.Now()
	det, err := core.Train(train, cfg)
	if err != nil {
		return MethodResult{}, fmt.Errorf("%s: %w", name, err)
	}
	trainDur := time.Since(t0)
	rep := det.Detect(b.Test)
	score := core.EvaluateReport(rep.Hotspots, b.TruthCores, b.Test.Area(), b.Spec)
	score.Runtime = trainDur + rep.Runtime
	return MethodResult{Method: name, Score: score, TrainTime: trainDur, EvalTime: rep.Runtime}, nil
}

// sampleTraining deterministically samples a fraction of the training set,
// keeping at least two patterns of each class.
func sampleTraining(train []*clip.Pattern, fraction float64, seed int64) []*clip.Pattern {
	if fraction >= 1 {
		return train
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(train))
	want := int(float64(len(train)) * fraction)
	var out []*clip.Pattern
	hs, nhs := 0, 0
	for _, i := range idx {
		p := train[i]
		take := len(out) < want
		if !take {
			// Class floors.
			if p.Label == clip.Hotspot && hs < 2 {
				take = true
			}
			if p.Label == clip.NonHotspot && nhs < 2 {
				take = true
			}
		}
		if !take {
			continue
		}
		out = append(out, p)
		if p.Label == clip.Hotspot {
			hs++
		} else {
			nhs++
		}
	}
	return out
}

// writeRows renders method rows as an aligned text table.
func writeRows(w io.Writer, title string, rows []MethodResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-12s %6s %8s %10s %10s %12s\n", "method", "#hit", "#extra", "accuracy", "hit/extra", "runtime")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %6d %8d %9.2f%% %10.2e %12s\n",
			r.Method, r.Score.Hits, r.Score.Extras, 100*r.Score.Accuracy, r.Score.HitExtra,
			r.Score.Runtime.Round(time.Millisecond))
	}
}
