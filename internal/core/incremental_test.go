package core

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// cloneLayout deep-copies a layout's rectangles (optionally translated),
// preserving the design extent so the tile grid anchors identically.
func cloneLayout(l *layout.Layout, name string, dx, dy geom.Coord) *layout.Layout {
	c := layout.New(name)
	for _, layer := range l.Layers() {
		for _, r := range l.Rects(layer) {
			c.AddRect(layer, r.Translate(dx, dy))
		}
	}
	c.Bounds = l.Bounds.Translate(dx, dy)
	return c
}

// reportBytes is the report's deterministic wire form (the same
// normalization `hotspot scan -report` writes); the incremental guarantee
// is that these bytes never depend on what was cached.
func reportBytes(t *testing.T, rep Report) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Candidates int         `json:"candidates"`
		Flagged    int         `json:"flagged"`
		Reclaimed  int         `json:"reclaimed"`
		Hotspots   []geom.Rect `json:"hotspots"`
	}{rep.Candidates, rep.Flagged, rep.Reclaimed, rep.Hotspots})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestScanIncrementalMatchesCold is the incremental engine's contract: a
// store-backed re-scan reports byte-identical results to a cold ScanTiled —
// after no edit (every tile cached) and after a small edit (only the tiles
// whose halo sees the edit are re-evaluated, bounded here at 5%).
func TestScanIncrementalMatchesCold(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	const tile = 4800

	// A 40x40 edit placed near a tile grid corner, within the halo
	// (CoreSide+Ambit = 3000) of the two low edges and beyond it from the
	// high ones: exactly the four tiles meeting at that corner go dirty.
	gb := b.Test.Bounds
	edited := cloneLayout(b.Test, "edited", 0, 0)
	edited.AddRect(d.Config().Layer,
		geom.R(gb.X0+4*tile+800, gb.Y0+4*tile+800, gb.X0+4*tile+840, gb.Y0+4*tile+840))

	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opts := ScanOptions{Tile: tile, Workers: workers}
			want, _, err := d.ScanTiledContext(context.Background(), b.Test, opts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "store.jsonl")

			// Cold incremental scan: an empty store caches nothing but must
			// not perturb the report.
			rep, st, err := d.ScanIncremental(b.Test, path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.TilesCached != 0 || st.TilesDirty != st.TilesTotal {
				t.Fatalf("cold store: %d cached, %d dirty of %d", st.TilesCached, st.TilesDirty, st.TilesTotal)
			}
			reportsEqual(t, "cold-store scan", rep, want)
			if got, exp := reportBytes(t, rep), reportBytes(t, want); got != exp {
				t.Fatalf("cold-store report bytes differ:\n got %s\nwant %s", got, exp)
			}

			// Warm re-scan, nothing edited: every tile served from the store.
			rep, st, err = d.ScanIncremental(b.Test, path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.TilesCached != st.TilesTotal || st.TilesDirty != 0 {
				t.Fatalf("warm no-edit: %d cached, %d dirty of %d", st.TilesCached, st.TilesDirty, st.TilesTotal)
			}
			if st.Store == nil || st.Store.Hits != int64(st.TilesTotal) {
				t.Fatalf("warm no-edit store stats: %+v", st.Store)
			}
			reportsEqual(t, "warm no-edit scan", rep, want)
			if got, exp := reportBytes(t, rep), reportBytes(t, want); got != exp {
				t.Fatalf("warm report bytes differ:\n got %s\nwant %s", got, exp)
			}

			// Warm re-scan after the edit: byte-identical to a cold scan of
			// the edited layout, evaluating only the halo-touched tiles.
			wantEdited, _, err := d.ScanTiledContext(context.Background(), edited, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, st, err = d.ScanIncremental(edited, path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.TilesDirty == 0 {
				t.Fatal("edit dirtied no tiles")
			}
			if st.TilesDirty*20 > st.TilesTotal {
				t.Fatalf("edit dirtied %d of %d tiles, above the 5%% bound", st.TilesDirty, st.TilesTotal)
			}
			if st.TilesCached+st.TilesDirty != st.TilesTotal {
				t.Fatalf("cached %d + dirty %d != total %d", st.TilesCached, st.TilesDirty, st.TilesTotal)
			}
			reportsEqual(t, "incremental edited scan", rep, wantEdited)
			if got, exp := reportBytes(t, rep), reportBytes(t, wantEdited); got != exp {
				t.Fatalf("edited report bytes differ:\n got %s\nwant %s", got, exp)
			}
		})
	}
}

// TestScanIncrementalTranslationEquivariant moves the whole chip rigidly
// and re-scans against a store warmed at the old position: snap-base-
// relative keys mean every tile still hits, and the relocated candidates
// assemble into exactly the cold report of the moved chip.
func TestScanIncrementalTranslationEquivariant(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	opts := ScanOptions{Tile: 4800, Workers: 8}
	path := filepath.Join(t.TempDir(), "store.jsonl")

	if _, _, err := d.ScanIncremental(b.Test, path, opts); err != nil {
		t.Fatal(err)
	}

	const dx, dy = 12_345, -6_789
	moved := cloneLayout(b.Test, "moved", dx, dy)
	want, _, err := d.ScanTiledContext(context.Background(), moved, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, st, err := d.ScanIncremental(moved, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesCached != st.TilesTotal || st.TilesDirty != 0 {
		t.Fatalf("translated scan: %d cached, %d dirty of %d tiles", st.TilesCached, st.TilesDirty, st.TilesTotal)
	}
	reportsEqual(t, "translated scan", rep, want)
}

// TestScanIncrementalDigestMismatch re-opens a warmed store under a
// different model: every cached verdict is suspect, so the store is
// discarded wholesale and the scan runs cold (then rebuilds the store
// under the new digest).
func TestScanIncrementalDigestMismatch(t *testing.T) {
	b := testBenchmark()
	d1 := trainedDetector(t, DefaultConfig())
	cfg2 := DefaultConfig()
	cfg2.Requirements.SnapGrid = 300 // a different dedup grid is a different model
	d2 := trainedDetector(t, cfg2)
	if d1.ModelDigest() == d2.ModelDigest() {
		t.Fatal("fixture detectors share a digest; test cannot exercise invalidation")
	}

	opts := ScanOptions{Tile: 4800, Workers: 8}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if _, _, err := d1.ScanIncremental(b.Test, path, opts); err != nil {
		t.Fatal(err)
	}

	want, _, err := d2.ScanTiledContext(context.Background(), b.Test, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, st, err := d2.ScanIncremental(b.Test, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesCached != 0 {
		t.Fatalf("served %d tiles from a store written by a different model", st.TilesCached)
	}
	if st.Store == nil || !st.Store.Invalidated {
		t.Fatalf("store stats did not report invalidation: %+v", st.Store)
	}
	reportsEqual(t, "post-invalidation scan", rep, want)

	// The rebuilt store is keyed under d2: a re-scan is fully cached.
	_, st, err = d2.ScanIncremental(b.Test, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.TilesCached != st.TilesTotal {
		t.Fatalf("rebuilt store: %d cached of %d", st.TilesCached, st.TilesTotal)
	}
}

// TestModelDigestStability pins what the digest must and must not depend
// on: it ignores runtime knobs (worker count, the per-scan snap base, the
// prescreen toggle — the verdict memo is exact) and changes with anything that
// can change a verdict.
func TestModelDigestStability(t *testing.T) {
	d := trainedDetector(t, DefaultConfig())
	digest := d.ModelDigest()
	if digest == "" || digest != d.ModelDigest() {
		t.Fatalf("digest unstable: %q vs %q", digest, d.ModelDigest())
	}

	saved := d.cfg
	defer func() { d.cfg = saved }()
	d.cfg.Workers = 3
	d.cfg.DisablePrescreen = true
	d.cfg.Requirements.SnapBase = geom.Pt(123, 456)
	if d.ModelDigest() != digest {
		t.Fatal("digest depends on a runtime knob (workers, prescreen, or snap base)")
	}
	d.cfg.Requirements.SnapGrid = 300
	if d.ModelDigest() == digest {
		t.Fatal("digest ignored a dedup grid change that can flip verdicts")
	}
}

// The memoized digest follows the bias while SetBias races ModelDigest:
// every concurrent call returns the digest of one of the two biases, and
// setting the first bias back restores the first digest.
func TestModelDigestConcurrentSetBias(t *testing.T) {
	d := trainedDetector(t, DefaultConfig())
	bias := d.Config().Bias
	first := d.ModelDigest()
	d.SetBias(bias + 0.5)
	moved := d.ModelDigest()
	if moved == first {
		t.Fatal("digest ignored a bias change")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := d.ModelDigest(); got != first && got != moved {
					t.Errorf("concurrent digest %s is neither bias's (%s, %s)", got, first, moved)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			d.SetBias(bias + 0.5*float64(i%2))
		}
	}()
	wg.Wait()

	d.SetBias(bias)
	if got := d.ModelDigest(); got != first {
		t.Fatalf("digest %s after restoring the bias, want %s", got, first)
	}
	d.SetBias(bias + 0.5)
	if got := d.ModelDigest(); got != moved {
		t.Fatalf("digest %s after moving the bias again, want %s", got, moved)
	}
}

// BenchmarkScanIncremental quantifies the incremental win: "cold" scans
// with an empty store each iteration (full evaluation plus store writes),
// "warm" re-scans an unchanged chip against a filled store (pure cache
// splice). The warm/cold ratio is the re-scan speedup the engine exists
// for; bench-scan-incremental-baseline.txt is the committed benchstat
// baseline.
func BenchmarkScanIncremental(b *testing.B) {
	bench := testBenchmark()
	d := trainedDetector(b, DefaultConfig())
	opts := ScanOptions{Tile: 16000, Workers: 8}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			path := filepath.Join(b.TempDir(), "store.jsonl")
			if _, _, err := d.ScanIncremental(bench.Test, path, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "store.jsonl")
		if _, st, err := d.ScanIncremental(bench.Test, path, opts); err != nil {
			b.Fatal(err)
		} else if st.TilesDirty != st.TilesTotal {
			b.Fatalf("fill scan: %+v", st)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, st, err := d.ScanIncremental(bench.Test, path, opts)
			if err != nil {
				b.Fatal(err)
			}
			if st.TilesCached != st.TilesTotal {
				b.Fatalf("warm scan evaluated tiles: %+v", st)
			}
		}
	})
}
