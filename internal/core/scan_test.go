package core

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
)

// reportsEqual compares the deterministic detection outcome of two reports
// (Runtime and Telemetry legitimately differ between runs).
func reportsEqual(t *testing.T, label string, got, want Report) {
	t.Helper()
	if got.Candidates != want.Candidates {
		t.Fatalf("%s: candidates %d, want %d", label, got.Candidates, want.Candidates)
	}
	if got.Flagged != want.Flagged {
		t.Fatalf("%s: flagged %d, want %d", label, got.Flagged, want.Flagged)
	}
	if got.Reclaimed != want.Reclaimed {
		t.Fatalf("%s: reclaimed %d, want %d", label, got.Reclaimed, want.Reclaimed)
	}
	if len(got.Hotspots) != len(want.Hotspots) {
		t.Fatalf("%s: %d hotspots, want %d", label, len(got.Hotspots), len(want.Hotspots))
	}
	for i := range got.Hotspots {
		if got.Hotspots[i] != want.Hotspots[i] {
			t.Fatalf("%s: hotspot %d = %v, want %v", label, i, got.Hotspots[i], want.Hotspots[i])
		}
	}
}

// TestScanTiledMatchesDetect is the pipeline's exact-equivalence guarantee:
// Detect, and the tiled scan at any tile size (down to the core side, up to
// one tile for the whole layout) and worker count, report the same hotspot
// set, candidate count, and flag/reclaim tallies as the monolithic scalar
// reference.
func TestScanTiledMatchesDetect(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	want := d.detectReference(b.Test)
	if want.Candidates == 0 {
		t.Fatal("benchmark produced no candidates")
	}
	reportsEqual(t, "detect", d.Detect(b.Test), want)

	for _, tc := range []struct {
		tile    geom.Coord
		workers int
	}{
		{4800, 1},
		{4800, 8},
		{16000, 4},
		{0, 8},       // default tile size
		{1 << 20, 4}, // the whole layout in one tile
	} {
		rep, stats, err := d.ScanTiledContext(context.Background(), b.Test, ScanOptions{Tile: tc.tile, Workers: tc.workers})
		if err != nil {
			t.Fatalf("tile=%d workers=%d: %v", tc.tile, tc.workers, err)
		}
		if stats.TilesDone == 0 || stats.TilesDone != stats.TilesTotal {
			t.Fatalf("tile=%d workers=%d: stats %+v", tc.tile, tc.workers, stats)
		}
		reportsEqual(t, "scan", rep, want)
	}
}

// TestScanTiledSeamOnce pins the seam guarantee at the detector level: with
// small tiles (a large seam surface) no hotspot core is reported twice, and
// the set still matches the monolithic reference.
func TestScanTiledSeamOnce(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	want := d.detectReference(b.Test)

	spec := d.Config().Spec
	rep, _, err := d.ScanTiledContext(context.Background(), b.Test, ScanOptions{Tile: spec.CoreSide * 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[geom.Rect]bool{}
	for _, h := range rep.Hotspots {
		if seen[h] {
			t.Fatalf("hotspot %v reported twice across tile seams", h)
		}
		seen[h] = true
	}
	reportsEqual(t, "seam scan", rep, want)
}

// TestScanTiledAdaptiveSplitMatches forces memory-budget splitting and
// checks the outcome still equals the monolithic reference.
func TestScanTiledAdaptiveSplitMatches(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	want := d.detectReference(b.Test)

	rep, stats, err := d.ScanTiledContext(context.Background(), b.Test, ScanOptions{
		Tile: 20000, Workers: 8, TileMemBytes: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TilesSplit == 0 {
		t.Fatal("expected adaptive splits under a 4 KiB budget")
	}
	reportsEqual(t, "split scan", rep, want)
}

// TestScanTiledResume interrupts a scan with a store partway (cancelling
// once a few tiles have completed), then re-runs it against the same store
// and requires the finished tiles to be served from it and the final
// report to be identical to an uninterrupted Detect.
func TestScanTiledResume(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	want := d.Detect(b.Test)
	opts := ScanOptions{Tile: 6000, Workers: 2, StorePath: filepath.Join(t.TempDir(), "scan.store")}

	reg := obs.NewRegistry()
	d.SetObs(reg)
	defer d.SetObs(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for reg.Counter("scan.tiles_done").Value() < 3 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	partial, stats, err := d.ScanTiledContext(ctx, b.Test, opts)
	cancel()
	if err == nil {
		// The scan outran the canceller; the store is complete, which
		// still exercises a fully cached re-run below.
		reportsEqual(t, "uninterrupted scan", partial, want)
	} else if stats.TilesDirty == 0 {
		t.Fatal("interrupted scan stored nothing; cannot test resume")
	}

	rep, stats2, err := d.ScanTiledContext(context.Background(), b.Test, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.TilesCached != stats.TilesDirty {
		t.Fatalf("re-run served %d tiles from the store, want the %d the first run finished", stats2.TilesCached, stats.TilesDirty)
	}
	if stats2.TilesCached+stats2.TilesDirty != stats2.TilesTotal {
		t.Fatalf("cached %d + dirty %d != total %d", stats2.TilesCached, stats2.TilesDirty, stats2.TilesTotal)
	}
	reportsEqual(t, "resumed scan", rep, want)
}

// TestScanGDSMatchesDetect drives the scan from a GDSII hierarchy (per-tile
// windowed flattening, removal over a windowed support layout) and checks
// it against the monolithic reference of the flattened chip.
func TestScanGDSMatchesDetect(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	lib := b.Test.ToGDS("TOP")
	flat, err := layout.FromGDS(lib, "TOP")
	if err != nil {
		t.Fatal(err)
	}
	want := d.detectReference(flat)

	rep, stats, err := d.ScanGDSContext(context.Background(), lib, "TOP", ScanOptions{Tile: 16000, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TilesDone == 0 {
		t.Fatal("no tiles scanned")
	}
	reportsEqual(t, "gds scan", rep, want)
}

// BenchmarkScanTiled times Detect (a tiled scan with default options)
// against the tiled scan at one and many workers, reporting allocations
// (the windowed GDS source's peak-memory win shows up as allocated bytes
// per op).
func BenchmarkScanTiled(b *testing.B) {
	bench := testBenchmark()
	d := trainedDetector(b, DefaultConfig())

	b.Run("monolithic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Detect(bench.Test)
		}
	})
	for _, workers := range []int{1, 8} {
		b.Run(map[int]string{1: "tiled-w1", 8: "tiled-w8"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := d.ScanTiledContext(context.Background(), bench.Test, ScanOptions{Tile: 16000, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("gds-tiled-w8", func(b *testing.B) {
		lib := bench.Test.ToGDS("TOP")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.ScanGDSContext(context.Background(), lib, "TOP", ScanOptions{Tile: 16000, Workers: 8}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
