package scan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/workerpanic"
)

var testSpec = clip.Spec{CoreSide: 1200, ClipSide: 4800}

// denseLayout builds a pseudo-random wire-field layout large enough to span
// several tiles at the given tile side.
func denseLayout(t testing.TB, seed int64, w, h geom.Coord) *layout.Layout {
	t.Helper()
	l := layout.New("scan-test")
	rng := rand.New(rand.NewSource(seed))
	// Horizontal wires on a loose pitch, with jitter, plus some vias.
	for y := geom.Coord(0); y < h; y += 900 {
		x := geom.Coord(rng.Intn(700))
		for x < w {
			run := geom.Coord(2000 + rng.Intn(9000))
			if x+run > w {
				run = w - x
			}
			l.AddRect(1, geom.Rect{X0: x, Y0: y, X1: x + run, Y1: y + 200})
			x += run + geom.Coord(400+rng.Intn(2500))
		}
	}
	for i := 0; i < int(w/1500); i++ {
		x := geom.Coord(rng.Intn(int(w - 300)))
		y := geom.Coord(rng.Intn(int(h - 300)))
		l.AddRect(1, geom.Rect{X0: x, Y0: y, X1: x + 300, Y1: y + 300})
	}
	l.Bounds = geom.Rect{X0: 0, Y0: 0, X1: w, Y1: h}
	return l
}

// extractEval is the model-free tile evaluator used throughout the tests:
// plain clip extraction with a deterministic pseudo-classification, so
// equivalence checks exercise the same merge paths core will.
func extractEval(layer layout.Layer, spec clip.Spec, req clip.Requirements) TileFunc {
	return func(ctx context.Context, l *layout.Layout, tile geom.Rect) ([]Candidate, error) {
		kcs, err := clip.ExtractTile(ctx, l, layer, spec, req, tile)
		if err != nil {
			return nil, err
		}
		out := make([]Candidate, len(kcs))
		for i, kc := range kcs {
			out[i] = Candidate{At: kc.At, Key: kc.Key, Flagged: (kc.At.X/spec.CoreSide)%2 == 0}
		}
		return out, nil
	}
}

// TestTilesOverPartition checks that tiles partition their bounds,
// including spans whose last tile edge would pass MaxInt32, where an int32
// step wrapped negative and never ended.
func TestTilesOverPartition(t *testing.T) {
	for _, tc := range []struct {
		bounds geom.Rect
		side   geom.Coord
		want   int
	}{
		{geom.Rect{X0: -100, Y0: 50, X1: 2500, Y1: 2050}, 1000, 6},
		{geom.R(2147482000, 0, math.MaxInt32, 100), 38400, 1},
		{geom.R(0, 0, 1000, 100), math.MaxInt32, 1},
		{geom.R(math.MaxInt32-5000, math.MaxInt32-2500, math.MaxInt32, math.MaxInt32), 2000, 6},
	} {
		tiles := tilesOver(tc.bounds, tc.side)
		if len(tiles) != tc.want {
			t.Fatalf("tilesOver(%v, %d): %d tiles, want %d", tc.bounds, tc.side, len(tiles), tc.want)
		}
		var area int64
		for i, a := range tiles {
			if a.Empty() {
				t.Fatalf("tile %d empty: %v", i, a)
			}
			if a.Intersect(tc.bounds) != a {
				t.Errorf("tile %v exceeds bounds %v", a, tc.bounds)
			}
			area += a.Area()
			for _, b := range tiles[i+1:] {
				if a.Overlaps(b) {
					t.Errorf("tiles %v and %v overlap", a, b)
				}
			}
		}
		if area != tc.bounds.Area() {
			t.Errorf("tile area %d != bounds area %d", area, tc.bounds.Area())
		}
	}
	if tilesOver(geom.Rect{}, 1000) != nil {
		t.Error("empty bounds should yield no tiles")
	}
}

func TestQuadrants(t *testing.T) {
	q := quadrants(geom.Rect{X0: 0, Y0: 0, X1: 4000, Y1: 4000}, 1200)
	if len(q) != 4 {
		t.Fatalf("got %d quadrants, want 4: %v", len(q), q)
	}
	var area int64
	for _, r := range q {
		area += r.Area()
	}
	if area != 4000*4000 {
		t.Errorf("quadrant area %d != parent area", area)
	}
	// Too small to split on either axis.
	if q := quadrants(geom.Rect{X0: 0, Y0: 0, X1: 2000, Y1: 2000}, 1200); q != nil {
		t.Errorf("unsplittable tile yielded %v", q)
	}
	// Splittable on X only: two children.
	q = quadrants(geom.Rect{X0: 0, Y0: 0, X1: 4000, Y1: 2000}, 1200)
	if len(q) != 2 {
		t.Fatalf("X-only split got %d children: %v", len(q), q)
	}
	for _, r := range q {
		if r.H() != 2000 {
			t.Errorf("X-only split changed height: %v", r)
		}
	}
}

func TestStealPoolProcessesEachTileOnce(t *testing.T) {
	var tiles []geom.Rect
	for i := 0; i < 64; i++ {
		tiles = append(tiles, geom.Rect{X0: geom.Coord(i), Y0: 0, X1: geom.Coord(i + 1), Y1: 1})
	}
	pool := newStealPool(7, tiles)
	var mu sync.Mutex
	seen := map[geom.Rect]int{}
	var extra atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < pool.workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				tile, ok := pool.get(w)
				if !ok {
					return
				}
				mu.Lock()
				seen[tile]++
				mu.Unlock()
				// Each of the first 8 tiles spawns one extra child, exercising
				// push/steal while other workers are parked or draining.
				if tile.Y0 == 0 && tile.X0 < 8 {
					pool.push(w, geom.Rect{X0: tile.X0, Y0: 100, X1: tile.X1, Y1: 101})
					extra.Add(1)
				}
				pool.finish()
			}
		}(w)
	}
	wg.Wait()
	want := len(tiles) + int(extra.Load())
	if len(seen) != want {
		t.Fatalf("processed %d distinct tiles, want %d", len(seen), want)
	}
	for tile, n := range seen {
		if n != 1 {
			t.Errorf("tile %v processed %d times", tile, n)
		}
	}
}

func TestStealPoolStopUnblocks(t *testing.T) {
	pool := newStealPool(2, []geom.Rect{{X0: 0, Y0: 0, X1: 1, Y1: 1}})
	tile, ok := pool.get(0)
	if !ok {
		t.Fatal("expected a tile")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := pool.get(1); ok {
			t.Error("get after stop should fail")
		}
	}()
	pool.stop()
	<-done
	_ = tile
	pool.finish()
}

// TestRunMatchesMonolithicExtract is the scan-level equivalence guarantee:
// for every tile size and worker count, the merged candidate set must be
// position-for-position identical to a whole-layout extraction.
func TestRunMatchesMonolithicExtract(t *testing.T) {
	l := denseLayout(t, 1, 40_000, 32_000)
	req := clip.DefaultRequirements
	want := clip.Extract(l, 1, testSpec, req)
	if len(want) == 0 {
		t.Fatal("test layout produced no candidates")
	}

	for _, tile := range []geom.Coord{testSpec.CoreSide, 5000, 9600, 64_000} {
		for _, workers := range []int{1, 4} {
			res, err := Run(context.Background(), NewLayoutSource(l, 1), Options{
				Spec: testSpec, Layer: 1, Req: req, Tile: tile, Workers: workers,
			}, extractEval(1, testSpec, req))
			if err != nil {
				t.Fatalf("tile=%d workers=%d: %v", tile, workers, err)
			}
			if len(res.Candidates) != len(want) {
				t.Fatalf("tile=%d workers=%d: %d candidates, want %d", tile, workers, len(res.Candidates), len(want))
			}
			for i, c := range res.Candidates {
				if c.At != want[i].At {
					t.Fatalf("tile=%d workers=%d: candidate %d at %v, want %v", tile, workers, i, c.At, want[i].At)
				}
			}
		}
	}
}

// TestRunSeamStraddle pins the seam-dedup behavior directly: a pattern
// whose snap-cell class straddles a tile boundary must be reported once,
// from its coordinate-minimal anchor.
func TestRunSeamStraddle(t *testing.T) {
	l := denseLayout(t, 7, 20_000, 10_000)
	req := clip.DefaultRequirements
	// Tile side equal to the core side maximizes seam candidates.
	res, err := Run(context.Background(), NewLayoutSource(l, 1), Options{
		Spec: testSpec, Layer: 1, Req: req, Tile: testSpec.CoreSide, Workers: 3,
	}, extractEval(1, testSpec, req))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[clip.Key]geom.Point{}
	for _, c := range res.Candidates {
		if prev, dup := keys[c.Key]; dup {
			t.Fatalf("key %+v reported twice: %v and %v", c.Key, prev, c.At)
		}
		keys[c.Key] = c.At
	}
	want := clip.Extract(l, 1, testSpec, req)
	if len(res.Candidates) != len(want) {
		t.Fatalf("%d candidates across seams, want %d", len(res.Candidates), len(want))
	}
}

func TestRunAdaptiveSplit(t *testing.T) {
	l := denseLayout(t, 3, 30_000, 30_000)
	req := clip.DefaultRequirements
	want := clip.Extract(l, 1, testSpec, req)

	// A budget small enough to force splitting of full tiles but not of
	// core-side quadrants.
	res, err := Run(context.Background(), NewLayoutSource(l, 1), Options{
		Spec: testSpec, Layer: 1, Req: req, Tile: 15_000, Workers: 4,
		TileMemBytes: 40 * rectFootprintBytes,
	}, extractEval(1, testSpec, req))
	if err != nil {
		t.Fatal(err)
	}
	if res.TilesSplit == 0 {
		t.Fatal("expected adaptive splits under a tiny memory budget")
	}
	if len(res.Candidates) != len(want) {
		t.Fatalf("split scan found %d candidates, want %d", len(res.Candidates), len(want))
	}
	for i, c := range res.Candidates {
		if c.At != want[i].At {
			t.Fatalf("candidate %d at %v, want %v", i, c.At, want[i].At)
		}
	}
}

// TestRunStoreResume is resume-from-store: a scan interrupted partway
// leaves its finished tiles in the store, and a re-run against the
// reopened store serves exactly those tiles, evaluates only the rest, and
// merges to the uninterrupted result.
func TestRunStoreResume(t *testing.T) {
	l := denseLayout(t, 5, 24_000, 24_000)
	req := clip.DefaultRequirements
	src := NewLayoutSource(l, 1)
	path := filepath.Join(t.TempDir(), "scan.store")
	st, err := OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Spec: testSpec, Layer: 1, Req: req, Tile: 6000, Workers: 2, Store: st}

	// First run: cancel partway through via an eval that trips the context
	// after a few tiles.
	ctx, cancel := context.WithCancel(context.Background())
	var evaluated atomic.Int32
	interrupting := func(ctx context.Context, tl *layout.Layout, tile geom.Rect) ([]Candidate, error) {
		if evaluated.Add(1) == 5 {
			cancel()
		}
		return extractEval(1, testSpec, req)(ctx, tl, tile)
	}
	partial, err := Run(ctx, src, opts, interrupting)
	st.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err=%v, want context.Canceled", err)
	}
	if partial.TilesDirty == 0 {
		t.Fatal("interrupted run stored no tiles; cannot test resume")
	}

	// Second run against the reopened store: stored tiles hit, the rest
	// are evaluated, and the merged result matches an uninterrupted scan.
	if opts.Store, err = OpenStore(path, "d", true); err != nil {
		t.Fatal(err)
	}
	defer opts.Store.Close()
	var reeval atomic.Int32
	counting := func(ctx context.Context, tl *layout.Layout, tile geom.Rect) ([]Candidate, error) {
		reeval.Add(1)
		return extractEval(1, testSpec, req)(ctx, tl, tile)
	}
	res, err := Run(context.Background(), src, opts, counting)
	if err != nil {
		t.Fatal(err)
	}
	if res.TilesCached != partial.TilesDirty {
		t.Fatalf("re-run served %d tiles from the store, want the %d the interrupted run finished", res.TilesCached, partial.TilesDirty)
	}
	if got := res.TilesCached + int(reeval.Load()); got != res.TilesTotal {
		t.Fatalf("cached %d + re-evaluated %d != total %d", res.TilesCached, reeval.Load(), res.TilesTotal)
	}

	fresh, err := Run(context.Background(), src, Options{Spec: testSpec, Layer: 1, Req: req, Tile: 6000, Workers: 2},
		extractEval(1, testSpec, req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Candidates, fresh.Candidates) {
		t.Fatalf("resumed scan diverged: %d candidates vs %d", len(res.Candidates), len(fresh.Candidates))
	}
}

// TestRunStoreTornTail resumes from a store whose final lines a crash cut
// mid-write: the torn tiles miss and re-evaluate, and the result equals a
// fresh scan.
func TestRunStoreTornTail(t *testing.T) {
	l := denseLayout(t, 9, 12_000, 12_000)
	req := clip.DefaultRequirements
	src := NewLayoutSource(l, 1)
	path := filepath.Join(t.TempDir(), "scan.store")
	st, err := OpenStore(path, "d", true)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Spec: testSpec, Layer: 1, Req: req, Tile: 6000, Store: st}
	if _, err := Run(context.Background(), src, opts, extractEval(1, testSpec, req)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate a crash mid-write: cut the store file mid-line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-len(b)/4], 0o644); err != nil {
		t.Fatal(err)
	}

	if opts.Store, err = OpenStore(path, "d", true); err != nil {
		t.Fatal(err)
	}
	defer opts.Store.Close()
	res, err := Run(context.Background(), src, opts, extractEval(1, testSpec, req))
	if err != nil {
		t.Fatalf("re-run over torn tail: %v", err)
	}
	if res.TilesDirty == 0 {
		t.Fatal("no tile re-evaluated although the store's tail was cut")
	}
	fresh, err := Run(context.Background(), src, Options{Spec: testSpec, Layer: 1, Req: req, Tile: 6000},
		extractEval(1, testSpec, req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Candidates, fresh.Candidates) {
		t.Fatal("torn-tail resume diverged from fresh scan")
	}
}

// TestRunGDSSourceMatchesLayout drives the scan from a GDSII hierarchy with
// per-window flattening and checks it against the monolithic flatten-then-
// extract path, including the post-load memory-budget split (GDS sources
// cannot estimate before loading).
func TestRunGDSSourceMatchesLayout(t *testing.T) {
	l := denseLayout(t, 21, 24_000, 18_000)
	lib := l.ToGDS("TOP")
	flat, err := layout.FromGDS(lib, "TOP")
	if err != nil {
		t.Fatal(err)
	}
	req := clip.DefaultRequirements
	want := clip.Extract(flat, 1, testSpec, req)
	if len(want) == 0 {
		t.Fatal("test layout produced no candidates")
	}

	src, err := NewGDSSource(lib, "TOP")
	if err != nil {
		t.Fatal(err)
	}
	if got, wantB := src.Bounds(), flat.Bounds; got != wantB {
		t.Fatalf("GDS bounds %v, want %v", got, wantB)
	}
	res, err := Run(context.Background(), src, Options{
		Spec: testSpec, Layer: 1, Req: req, Tile: 6000, Workers: 4,
		TileMemBytes: 10 * rectFootprintBytes,
	}, extractEval(1, testSpec, req))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != len(want) {
		t.Fatalf("GDS scan found %d candidates, want %d", len(res.Candidates), len(want))
	}
	for i, c := range res.Candidates {
		if c.At != want[i].At {
			t.Fatalf("candidate %d at %v, want %v", i, c.At, want[i].At)
		}
	}
	if res.TilesSplit == 0 {
		t.Error("expected post-load splits under a tiny memory budget")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	l := denseLayout(t, 13, 8000, 8000)
	src := NewLayoutSource(l, 1)
	_, err := Run(context.Background(), src, Options{
		Spec: testSpec, Layer: 1, Tile: testSpec.CoreSide - 1,
	}, extractEval(1, testSpec, clip.Requirements{}))
	if err == nil {
		t.Fatal("tile below core side should be rejected")
	}
}

// TestRunRefusesOversizedTileGrid scans two small rectangles at opposite
// corners of a 10^9-dbu square. At the default tile side that is about
// 6.8 x 10^8 tiles: Run must refuse it with ErrTooManyTiles, naming the
// smallest tile side that fits, before it allocates a tile list. Before
// the ceiling, Run allocated until the process ran out of memory.
func TestRunRefusesOversizedTileGrid(t *testing.T) {
	l := layout.New("corners")
	l.AddRect(1, geom.R(0, 0, 1000, 100))
	l.AddRect(1, geom.R(1_000_000_000, 1_000_000_000, 1_000_001_000, 1_000_000_100))
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err = Run(context.Background(), NewLayoutSource(l, 1), Options{Spec: testSpec, Layer: 1},
			extractEval(1, testSpec, clip.Requirements{}))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run still running after 10s")
	}
	if !errors.Is(err, ErrTooManyTiles) {
		t.Fatalf("err = %v, want ErrTooManyTiles", err)
	}
	side := minTileSide(l.Bounds, DefaultTileFactor*testSpec.ClipSide)
	if !tilesFit(l.Bounds, side) || tilesFit(l.Bounds, side-1) {
		t.Fatalf("minTileSide = %d, not the smallest side that fits", side)
	}
	if !strings.HasSuffix(err.Error(), fmt.Sprintf("raise the tile side to at least %d", side)) {
		t.Fatalf("error does not name tile side %d: %v", side, err)
	}
}

func TestRunPropagatesEvalError(t *testing.T) {
	l := denseLayout(t, 15, 12_000, 12_000)
	src := NewLayoutSource(l, 1)
	boom := errors.New("boom")
	_, err := Run(context.Background(), src, Options{
		Spec: testSpec, Layer: 1, Req: clip.DefaultRequirements, Tile: 6000, Workers: 3,
	}, func(context.Context, *layout.Layout, geom.Rect) ([]Candidate, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
}

// TestRunRecoversTilePanic: a TileFunc that panics on one tile stops the
// scan, which returns the panic as a *workerpanic.Error instead of crashing the
// process, at one worker and at several (where the other workers must
// not park forever on the stopped pool). The error's message carries the
// worker's stack, which nothing else prints.
func TestRunRecoversTilePanic(t *testing.T) {
	l := denseLayout(t, 15, 12_000, 12_000)
	for _, workers := range []int{1, 4} {
		var calls atomic.Int32
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), NewLayoutSource(l, 1), Options{
				Spec: testSpec, Layer: 1, Req: clip.DefaultRequirements, Tile: 6000, Workers: workers,
			}, func(context.Context, *layout.Layout, geom.Rect) ([]Candidate, error) {
				if calls.Add(1) == 2 {
					panic("tile boom")
				}
				return nil, nil
			})
			done <- err
		}()
		select {
		case err := <-done:
			var p *workerpanic.Error
			if !errors.As(err, &p) || p.Value != "tile boom" || !strings.Contains(string(p.Stack), "runTile") ||
				!strings.HasPrefix(err.Error(), workerpanic.Prefix+"tile boom\n") || !strings.Contains(err.Error(), "runTile") {
				t.Fatalf("workers=%d: err = %v, want a *workerpanic.Error of \"tile boom\" with its stack", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: Run did not return after a tile panicked", workers)
		}
	}
}

// TestRunWindowPartition is the distributed-shard guarantee at the scan
// level: tile-row-aligned windows partitioning the bounds produce
// candidate sets whose concatenation, after one MergeSeams pass, equals
// the whole-extent run position-for-position.
func TestRunWindowPartition(t *testing.T) {
	l := denseLayout(t, 3, 40_000, 32_000)
	req := clip.DefaultRequirements
	const tile = 8000
	src := NewLayoutSource(l, 1)
	opts := Options{Spec: testSpec, Layer: 1, Req: req, Tile: tile, Workers: 2}
	full, err := Run(context.Background(), src, opts, extractEval(1, testSpec, req))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Candidates) == 0 {
		t.Fatal("test layout produced no candidates")
	}

	// Deliberately uneven partition: one tile row, then the remaining three.
	var all []Candidate
	for _, band := range []geom.Rect{
		geom.R(0, 0, 40_000, tile),
		geom.R(0, tile, 40_000, 32_000),
	} {
		wopts := opts
		wopts.Window = band
		res, err := Run(context.Background(), src, wopts, extractEval(1, testSpec, req))
		if err != nil {
			t.Fatalf("window %v: %v", band, err)
		}
		all = append(all, res.Candidates...)
	}
	merged := MergeSeams(all)
	if len(merged) != len(full.Candidates) {
		t.Fatalf("windowed partition merged to %d candidates, want %d", len(merged), len(full.Candidates))
	}
	for i := range merged {
		if merged[i] != full.Candidates[i] {
			t.Fatalf("candidate %d = %+v, want %+v", i, merged[i], full.Candidates[i])
		}
	}
}
