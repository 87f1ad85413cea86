package hotspot

// The benchmarks in this file regenerate the paper's evaluation artifacts
// (Tables I-V and Fig. 15) and the ablation studies of the design choices
// called out in DESIGN.md §4. Each benchmark prints its table on the first
// iteration, so
//
//	go test -bench=BenchmarkTable -benchtime=1x
//
// reproduces the full evaluation. The benchmark scale defaults to a
// reduced-size suite so that the run completes in minutes; set
// HOTSPOT_BENCH_SCALE=1 for the paper-sized benchmarks.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"hotspot/internal/core"
	"hotspot/internal/experiments"
	"hotspot/internal/iccad"
)

func benchScale() float64 {
	if v := os.Getenv("HOTSPOT_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.25
}

var (
	suiteOnce sync.Once
	suiteInst *experiments.Suite
)

func benchSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		suiteInst = experiments.NewSuite(experiments.Options{Scale: benchScale()})
	})
	return suiteInst
}

// BenchmarkTable1 regenerates Table I (benchmark statistics).
func BenchmarkTable1(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			if err := s.WriteTable1(os.Stdout); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := s.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table II (comparison with the contest
// winners and [14]) across the five array benchmarks.
func BenchmarkTable2(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			if err := s.WriteTable2(os.Stdout); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for _, name := range experiments.BenchNames() {
			if name == "MX_blind_partial" {
				continue
			}
			if _, err := s.Table2(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable3 regenerates Table III (feature ablation) across all six
// benchmarks.
func BenchmarkTable3(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			if err := s.WriteTable3(os.Stdout); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for _, name := range experiments.BenchNames() {
			if _, err := s.Table3(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable4 regenerates Table IV (accuracy vs training data).
func BenchmarkTable4(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			if err := s.WriteTable4(os.Stdout); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates Table V (clip extraction counts).
func BenchmarkTable5(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			if err := s.WriteTable5(os.Stdout); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := s.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15 regenerates the Fig. 15 accuracy / false-alarm trade-off
// curve.
func BenchmarkFig15(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if i == 0 {
			if err := s.WriteFig15(os.Stdout, nil); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := s.Fig15(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationBench generates a small benchmark once for the ablation studies.
var (
	ablOnce  sync.Once
	ablBench *iccad.Benchmark
)

func ablationBench() *iccad.Benchmark {
	ablOnce.Do(func() {
		ablBench = iccad.Generate(iccad.Config{
			Name: "ablation", Process: "32nm",
			W: 60000, H: 60000,
			TestHS: 16, TrainHS: 30, TrainNHS: 120,
			FillFactor: 0.5, Seed: 11, Workers: 8,
		})
	})
	return ablBench
}

func runAblation(b *testing.B, label string, cfg core.Config) {
	bench := ablationBench()
	det, err := core.Train(bench.Train, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := det.Detect(bench.Test)
		if i == 0 {
			score := core.EvaluateReport(rep.Hotspots, bench.TruthCores, bench.Test.Area(), bench.Spec)
			fmt.Printf("  ablation %-22s %s\n", label, score)
		}
	}
}

// BenchmarkAblationRouting compares all-kernel evaluation (paper-faithful)
// against RouteK density routing (DESIGN.md §4: cross-topology kernel
// evaluation).
func BenchmarkAblationRouting(b *testing.B) {
	b.Run("all-kernels", func(b *testing.B) {
		runAblation(b, "route=all", core.DefaultConfig())
	})
	b.Run("route-3", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.RouteK = 3
		runAblation(b, "route=3", cfg)
	})
	b.Run("route-8", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.RouteK = 8
		runAblation(b, "route=8", cfg)
	})
}

// BenchmarkAblationShift measures the effect of data-shifting upsampling
// (§III-D3).
func BenchmarkAblationShift(b *testing.B) {
	b.Run("shift-120", func(b *testing.B) {
		runAblation(b, "shift=120nm", core.DefaultConfig())
	})
	b.Run("shift-0", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.ShiftNM = 0
		runAblation(b, "shift=off", cfg)
	})
}

// BenchmarkAblationKernelCap measures the kernel-count bound (DESIGN.md §4:
// cluster merging beyond the paper's expected cluster count).
func BenchmarkAblationKernelCap(b *testing.B) {
	for _, cap := range []int{16, 64, 0} {
		cfg := core.DefaultConfig()
		cfg.MaxKernels = cap
		name := fmt.Sprintf("max-kernels-%d", cap)
		if cap == 0 {
			name = "max-kernels-unbounded"
		}
		b.Run(name, func(b *testing.B) {
			runAblation(b, name, cfg)
		})
	}
}

// BenchmarkTrainInstrumented quantifies the observability layer's
// training-time overhead: the identical training run with the metrics
// registry attached vs detached. The disabled path is designed to be free
// (nil instruments no-op; see the AllocsPerRun tests in internal/svm and
// internal/obs), and the enabled path should stay within noise.
func BenchmarkTrainInstrumented(b *testing.B) {
	bench := ablationBench()
	run := func(b *testing.B, cfg core.Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Train(bench.Train, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uninstrumented", func(b *testing.B) {
		run(b, core.DefaultConfig())
	})
	b.Run("instrumented", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Obs = NewRegistry()
		run(b, cfg)
	})
}

// BenchmarkDetectInstrumented is the detection-side counterpart.
func BenchmarkDetectInstrumented(b *testing.B) {
	bench := ablationBench()
	run := func(b *testing.B, cfg core.Config) {
		det, err := core.Train(bench.Train, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.Detect(bench.Test)
		}
	}
	b.Run("uninstrumented", func(b *testing.B) {
		run(b, core.DefaultConfig())
	})
	b.Run("instrumented", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Obs = NewRegistry()
		run(b, cfg)
	})
}

// BenchmarkAblationFeedback measures the feedback kernel's contribution.
func BenchmarkAblationFeedback(b *testing.B) {
	b.Run("with-feedback", func(b *testing.B) {
		runAblation(b, "feedback=on", core.DefaultConfig())
	})
	b.Run("without-feedback", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.EnableFeedback = false
		runAblation(b, "feedback=off", cfg)
	})
}

// BenchmarkClassifyBatch compares per-clip ClassifyPattern calls against
// one ClassifyBatch call over the ablation benchmark's training patterns.
// ClassifyPattern is ClassifyBatch of one clip, so the "scalar" leg runs
// one-clip batches through the same engine and verdict memo; the two legs
// differ only in how many clips share a batch.
func BenchmarkClassifyBatch(b *testing.B) {
	bench := ablationBench()
	det, err := core.Train(bench.Train, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range bench.Train {
				det.ClassifyPattern(p)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.ClassifyBatch(bench.Train)
		}
	})
}
