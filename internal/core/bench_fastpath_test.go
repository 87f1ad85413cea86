package core

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"hotspot/internal/simd"
)

// BenchmarkEvalClipPipeline measures steady-state clip evaluation (one
// scan.ChunkSize batch, evaluated serially — a scan chunk's shape) through the
// three fast-path regimes:
//
//   - prescreen-hit: the verdict memo resolves every clip (warmed memo),
//     the zero-allocation steady state of repeated layout geometry;
//   - prescreen-miss: a fresh memo per batch, so every lookup misses and
//     every verdict is inserted — each clip pays the memo AND the full
//     pipeline, the memo's overhead ceiling;
//   - full-eval: the memo is disabled outright, the slow path.
//
// bench-extract-baseline.txt holds the pre-fast-path numbers for the same
// benchmark names (every regime ran the then-only full pipeline); CI
// benchstat-diffs fresh runs against it, and the alloc gate requires the
// prescreen-hit case to report 0 allocs/op.
func BenchmarkEvalClipPipeline(b *testing.B) {
	bench := testBenchmark()
	d := trainedDetector(b, DefaultConfig())
	s := getScratch()
	defer putScratch(s)
	ps, cfg := evalFixture(b, d, bench.Test, s)

	run := func(b *testing.B, cfg Config, coldMemo bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if coldMemo {
				d.memo.Store(nil)
			}
			d.evalBatchScratch(s, ps, cfg)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ps)), "ns/clip")
	}
	b.Run("prescreen-hit", func(b *testing.B) {
		d.evalBatchScratch(s, ps, cfg) // warm the memo
		run(b, cfg, false)
	})
	b.Run("prescreen-miss", func(b *testing.B) {
		run(b, cfg, true)
	})
	b.Run("full-eval", func(b *testing.B) {
		slow := cfg
		slow.DisablePrescreen = true
		run(b, slow, false)
	})
}

// TestWriteBenchExtractJSON regenerates BENCH_extract.json at the repo
// root when HOTSPOT_BENCH_JSON is set (see `make bench-extract-json` and
// EXPERIMENTS.md): per-regime ns/clip plus the hit-path speedup over the
// memo-disabled slow path.
func TestWriteBenchExtractJSON(t *testing.T) {
	if os.Getenv("HOTSPOT_BENCH_JSON") == "" {
		t.Skip("set HOTSPOT_BENCH_JSON=1 to (re)write BENCH_extract.json")
	}
	gomaxprocs := runtime.GOMAXPROCS(0) // before AllocsPerRun pins it to 1
	bench := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	s := getScratch()
	defer putScratch(s)
	ps, cfg := evalFixture(t, d, bench.Test, s)

	nsPerClip := func(cfg Config, coldMemo bool) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if coldMemo {
					d.memo.Store(nil)
				}
				d.evalBatchScratch(s, ps, cfg)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N) / float64(len(ps))
	}
	miss := nsPerClip(cfg, true)
	d.evalBatchScratch(s, ps, cfg) // warm the memo
	hit := nsPerClip(cfg, false)
	slow := cfg
	slow.DisablePrescreen = true
	full := nsPerClip(slow, false)

	allocs := testing.AllocsPerRun(20, func() { d.evalBatchScratch(s, ps, cfg) })

	doc := map[string]any{
		"generated_by":  "make bench-extract-json (internal/core TestWriteBenchExtractJSON)",
		"gomaxprocs":    gomaxprocs,
		"simd_dispatch": simd.Active(),
		"batch_clips":   len(ps),
		"ns_per_clip": map[string]float64{
			"prescreen_hit":  hit,
			"prescreen_miss": miss,
			"full_eval":      full,
		},
		"speedup_hit_vs_full":   full / hit,
		"overhead_miss_vs_full": miss / full,
		"steady_state_allocs":   allocs,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_extract.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("hit %.0fns miss %.0fns full %.0fns per clip (hit x%.1f vs full, %.1f allocs)",
		hit, miss, full, full/hit, allocs)
}
