package core

import (
	"context"
	"testing"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
)

// setPrescreen toggles the fast path's verdict-memo pre-screen on a live
// detector (test-only knob; production callers set Config.DisablePrescreen
// before Train).
func setPrescreen(d *Detector, disabled bool) {
	d.mu.Lock()
	d.cfg.DisablePrescreen = disabled
	d.mu.Unlock()
}

// detectEqual runs reportsEqual plus the stronger telemetry obligation the
// memo carries: the kernel-evaluation count must be byte-identical too
// (memo hits replay cached verdicts verbatim).
func detectEqual(t *testing.T, label string, got, want Report) {
	t.Helper()
	reportsEqual(t, label, got, want)
	g := got.Telemetry.Counters["detect.kernel_evals"]
	w := want.Telemetry.Counters["detect.kernel_evals"]
	if g != w {
		t.Fatalf("%s: kernel_evals %d, want %d", label, g, w)
	}
}

// TestPrescreenCascadeExact is the fast path's central proof obligation:
// with the verdict memo enabled (warm, or cold so every first lookup
// misses and inserts) Detect's report — hotspots, tallies, and
// kernel-evaluation telemetry — is byte-identical to the memo-disabled
// slow path, across worker counts and bias operating points.
func TestPrescreenCascadeExact(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	for _, bias := range []float64{0, 0.75} {
		d.SetBias(bias)
		setPrescreen(d, true)
		want := d.Detect(b.Test)
		setPrescreen(d, false)
		for _, workers := range []int{1, 8} {
			d.SetWorkers(workers)
			detectEqual(t, "cascade", d.Detect(b.Test), want)
			d.memo.Store(nil) // cold memo: every first lookup misses
			detectEqual(t, "cold memo", d.Detect(b.Test), want)
		}
		d.SetWorkers(DefaultConfig().Workers)
	}
	d.SetBias(0)
}

// TestPrescreenCascadeExactBasic covers the single-huge-kernel baseline,
// whose memo entries hold the direct-vector (BasicSlots) verdicts.
func TestPrescreenCascadeExactBasic(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, BasicConfig())

	setPrescreen(d, true)
	want := d.Detect(b.Test)
	setPrescreen(d, false)
	detectEqual(t, "basic cascade", d.Detect(b.Test), want)
	d.memo.Store(nil)
	detectEqual(t, "basic cold memo", d.Detect(b.Test), want)
}

// TestPrescreenScanPathsExact extends the equivalence to every scan
// surface: tiled, GDS, and the distributed shard path (ScanShardContext +
// MergeSeams + ReportFromScan, the coordinator's exact pipeline) must all
// match the memo-disabled monolithic Detect.
func TestPrescreenScanPathsExact(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	setPrescreen(d, true)
	want := d.Detect(b.Test)
	setPrescreen(d, false)

	for _, workers := range []int{1, 8} {
		rep, _, err := d.ScanTiledContext(context.Background(), b.Test, ScanOptions{Tile: 16000, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "tiled cascade", rep, want)
	}

	lib := b.Test.ToGDS("TOP")
	flat, err := layout.FromGDS(lib, "TOP")
	if err != nil {
		t.Fatal(err)
	}
	grep, _, err := d.ScanGDSContext(context.Background(), lib, "TOP", ScanOptions{Tile: 16000, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	setPrescreen(d, true)
	gwant := d.Detect(flat)
	setPrescreen(d, false)
	reportsEqual(t, "gds cascade", grep, gwant)

	// Distributed shard path: two tile-row-aligned bands, merged exactly as
	// the coordinator merges backend responses.
	const tile = 16000
	gb := b.Test.GeometryBounds()
	snap := geom.Pt(gb.X0, gb.Y0)
	split := gb.Y0 + 2*tile
	if split >= gb.Y1 {
		split = gb.Y0 + tile
	}
	var merged []scan.Candidate
	for _, win := range []geom.Rect{
		{X0: gb.X0, Y0: gb.Y0, X1: gb.X1, Y1: split},
		{X0: gb.X0, Y0: split, X1: gb.X1, Y1: gb.Y1},
	} {
		cands, _, err := d.ScanShardContext(context.Background(), b.Test, win, snap, ScanOptions{Tile: tile})
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, cands...)
	}
	var rep Report
	if err := d.ReportFromScan(&rep, scan.MergeSeams(merged), b.Test, true); err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "sharded cascade", rep, want)
}

// TestPrescreenObservability checks the fast path's registry instruments:
// a first scan over fresh geometry records memo misses, a repeat records
// hits, and the per-clip allocation histogram fills.
func TestPrescreenObservability(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	reg := obs.NewRegistry()
	d.SetObs(reg)
	defer d.SetObs(nil)

	d.Detect(b.Test)
	d.Detect(b.Test)
	snap := reg.Snapshot()
	if snap.Counters["eval.memo_misses"] == 0 {
		t.Fatal("no memo misses recorded on a fresh detector")
	}
	if snap.Counters["eval.memo_hits"] == 0 {
		t.Fatal("no memo hits recorded on a repeat detection")
	}
	h, ok := snap.Histograms["eval.alloc_bytes_per_clip"]
	if !ok || h.Count == 0 {
		t.Fatalf("eval.alloc_bytes_per_clip histogram missing or empty: %+v", h)
	}
}

// evalFixture extracts up to detectChunk candidate clips from the test
// layout into scratch-owned pattern slots, serial-eval configured.
func evalFixture(t testing.TB, d *Detector, l *layout.Layout, s *evalScratch) ([]*clip.Pattern, Config) {
	cfg := d.config()
	cfg.Workers = 1
	cfg.Obs = nil
	gb := l.GeometryBounds()
	cfg.Requirements.SnapBase = geom.Pt(gb.X0, gb.Y0)
	cands := clip.ExtractParallelObs(l, cfg.Layer, cfg.Spec, cfg.Requirements, 8, nil)
	if len(cands) == 0 {
		t.Fatal("no candidate clips")
	}
	n := len(cands)
	if n > detectChunk {
		n = detectChunk
	}
	ps := s.patterns(n)
	for i := 0; i < n; i++ {
		clip.FromLayoutInto(ps[i], l, cfg.Layer, cfg.Spec, cands[i].At, 0)
	}
	return ps, cfg
}

// TestEvalBatchZeroAlloc locks in the tentpole's zero-allocation contract:
// once the scratch buffers are warmed and the verdict memo has seen the
// batch, steady-state clip evaluation (the memo-hit path every repeated
// layout pattern takes) performs zero heap allocations per batch, and so
// does the feedback pass over a clean batch.
func TestEvalBatchZeroAlloc(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	s := getScratch()
	defer putScratch(s)
	ps, cfg := evalFixture(t, d, b.Test, s)

	d.evalBatchScratch(s, ps, cfg) // warm buffers and memo

	if allocs := testing.AllocsPerRun(50, func() {
		d.evalBatchScratch(s, ps, cfg)
	}); allocs != 0 {
		t.Fatalf("steady-state evalBatch allocates %.1f objects/op, want 0", allocs)
	}

	clean := make([]batchVerdict, len(ps)) // no flags: nothing to reclaim
	if allocs := testing.AllocsPerRun(50, func() {
		d.feedbackBatchScratch(s, ps, clean, cfg)
	}); allocs != 0 {
		t.Fatalf("steady-state feedbackBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMemoInvalidation pins the memo's configuration sensitivity: the memo
// is stable under an unchanged configuration and atomically replaced when
// the bias moves (SetBias must never serve verdicts cached under another
// operating point).
func TestMemoInvalidation(t *testing.T) {
	d := trainedDetector(t, DefaultConfig())
	cfg := d.config()

	m1 := d.memoFor(cfg)
	if d.memoFor(cfg) != m1 {
		t.Fatal("memo not stable under an unchanged configuration")
	}
	d.SetBias(0.75)
	defer d.SetBias(0)
	m2 := d.memoFor(d.config())
	if m2 == m1 {
		t.Fatal("memo survived a bias change")
	}
	if d.memoFor(d.config()) != m2 {
		t.Fatal("memo not stable after the swap")
	}
}
