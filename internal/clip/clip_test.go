package clip

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

func TestSpec(t *testing.T) {
	if err := DefaultSpec.Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultSpec.Ambit() != 1800 {
		t.Fatalf("ambit: %d", DefaultSpec.Ambit())
	}
	if err := (Spec{CoreSide: 0, ClipSide: 100}).Validate(); err == nil {
		t.Fatal("zero core must fail")
	}
	if err := (Spec{CoreSide: 200, ClipSide: 100}).Validate(); err == nil {
		t.Fatal("clip smaller than core must fail")
	}
	if err := (Spec{CoreSide: 100, ClipSide: 201}).Validate(); err == nil {
		t.Fatal("odd ambit must fail")
	}
	w := DefaultSpec.WindowFor(geom.Pt(10000, 20000))
	if w != geom.R(8200, 18200, 13000, 23000) {
		t.Fatalf("window: %v", w)
	}
	c := DefaultSpec.CoreFor(geom.Pt(10000, 20000))
	if c != geom.R(10000, 20000, 11200, 21200) {
		t.Fatalf("core: %v", c)
	}
	if !w.ContainsRect(c) {
		t.Fatal("window must contain core")
	}
}

func TestPatternShifted(t *testing.T) {
	all := []geom.Rect{geom.R(0, 0, 10000, 100)}
	p := &Pattern{
		Window: geom.R(1000, -2400, 5800, 2400),
		Core:   geom.R(2800, -600, 4000, 600),
		Rects:  []geom.Rect{geom.R(1000, 0, 5800, 100)},
	}
	s := p.Shifted(120, 0, all)
	if s.Core != geom.R(2920, -600, 4120, 600) {
		t.Fatalf("shifted core: %v", s.Core)
	}
	if s.Window != geom.R(1120, -2400, 5920, 2400) {
		t.Fatalf("shifted window: %v", s.Window)
	}
	if len(s.Rects) != 1 || s.Rects[0] != geom.R(1120, 0, 5920, 100) {
		t.Fatalf("shifted rects: %v", s.Rects)
	}
}

func TestCoreRects(t *testing.T) {
	p := &Pattern{
		Window: geom.R(0, 0, 4800, 4800),
		Core:   geom.R(1800, 1800, 3000, 3000),
		Rects:  []geom.Rect{geom.R(0, 2000, 4800, 2100), geom.R(0, 0, 100, 100)},
	}
	cr := p.CoreRects()
	if len(cr) != 1 || cr[0] != geom.R(1800, 2000, 3000, 2100) {
		t.Fatalf("core rects: %v", cr)
	}
}

func TestDissect(t *testing.T) {
	r := geom.R(0, 0, 2500, 900)
	// 3 x-pieces (1200, 1200, 100) x 1 y-piece.
	if nx, ny := pieceGrid(r, 1200); nx != 3 || ny != 1 {
		t.Fatalf("pieces: %d x %d, want 3 x 1", nx, ny)
	}
	var got []geom.Point
	forEachAnchorIn(r, 1200, r, func(at geom.Point) bool {
		got = append(got, at)
		return true
	})
	if want := []geom.Point{{X: 0}, {X: 1200}, {X: 2400}}; !slices.Equal(got, want) {
		t.Fatalf("anchors: %v, want %v", got, want)
	}
	// A rectangle ending at MaxInt32 still dissects into a finite grid,
	// and the anchor walk ends instead of wrapping (it stops at 10 if
	// not).
	edge := geom.R(2147482000, 0, math.MaxInt32, 100)
	if nx, ny := pieceGrid(edge, 1200); nx != 2 || ny != 1 {
		t.Fatalf("edge pieces: %d x %d, want 2 x 1", nx, ny)
	}
	n := 0
	forEachAnchorIn(edge, 1200, edge, func(geom.Point) bool {
		n++
		return n < 10
	})
	if n != 2 {
		t.Fatalf("edge anchors: %d, want 2", n)
	}
}

func testLayout() *layout.Layout {
	l := layout.New("t")
	// A large block of parallel wires: interior clips see geometry near
	// every clip border, so the border-distance requirement passes.
	for i := 0; i < 42; i++ {
		y := geom.Coord(6000 + i*240)
		l.AddRect(1, geom.R(6000, y, 16000, y+100))
	}
	return l
}

func TestExtractFindsWirePatterns(t *testing.T) {
	l := testLayout()
	cands := Extract(l, 1, DefaultSpec, DefaultRequirements)
	if len(cands) == 0 {
		t.Fatal("no candidates extracted")
	}
	// Every candidate core must contain geometry.
	for _, c := range cands {
		core := DefaultSpec.CoreFor(c.At)
		if len(l.QueryClipped(1, core, nil)) == 0 {
			t.Fatalf("candidate %v has empty core", c.At)
		}
	}
	// Every geometry rectangle of the wire block must be covered by at
	// least one clip window (the paper's guarantee: if the distribution
	// requirements are met, each polygon is included by at least one
	// layout clip).
	covered := 0
	for i := 0; i < 42; i++ {
		y := geom.Coord(6000 + i*240)
		wire := geom.R(6000, y, 16000, y+100)
		hit := false
		for _, c := range cands {
			if DefaultSpec.WindowFor(c.At).Overlaps(wire) {
				hit = true
				break
			}
		}
		if hit {
			covered++
		}
	}
	if covered != 42 {
		t.Fatalf("only %d/42 wires covered by clips", covered)
	}
}

func TestExtractDeduplicates(t *testing.T) {
	l := layout.New("t")
	// Two rectangles sharing a bottom-left corner after dissection.
	l.AddRect(1, geom.R(0, 0, 600, 600))
	l.AddRect(1, geom.R(0, 0, 300, 900))
	cands := Extract(l, 1, DefaultSpec, Requirements{})
	seen := map[geom.Point]int{}
	for _, c := range cands {
		seen[c.At]++
		if seen[c.At] > 1 {
			t.Fatalf("duplicate candidate at %v", c.At)
		}
	}
}

func TestExtractParallelMatchesSerial(t *testing.T) {
	l := testLayout()
	serial := Extract(l, 1, DefaultSpec, DefaultRequirements)
	for _, workers := range []int{2, 4, 8} {
		par := ExtractParallel(l, 1, DefaultSpec, DefaultRequirements, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d candidates vs %d serial", workers, len(par), len(serial))
		}
		for i := range par {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: candidate %d differs: %v vs %v", workers, i, par[i], serial[i])
			}
		}
	}
}

// TestExtractCancelledOnHugeRect extracts a solid 1.2 x 2 mm rectangle,
// 1.67M pieces that all qualify, as one tile under a 50 ms deadline. It
// must return the deadline error within a second: a rectangle's area,
// unlike its coordinates, is not refused up front, so extraction itself
// has to stop.
func TestExtractCancelledOnHugeRect(t *testing.T) {
	l := layout.New("huge")
	huge := geom.R(0, 0, 1_200_000, 2_000_000)
	l.AddRect(1, huge)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := ExtractTile(ctx, l, 1, DefaultSpec, DefaultRequirements, huge)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want DeadlineExceeded", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("returned %v after a 50ms deadline", d)
		}
	case <-time.After(10 * time.Second):
		t.Error("still extracting 10s after a 50ms deadline")
	}
}

func TestRequirementsFilters(t *testing.T) {
	l := layout.New("t")
	l.AddRect(1, geom.R(0, 0, 50, 50)) // tiny spec of geometry
	at := geom.Pt(0, 0)
	// Density filter: 50x50 in a 1200x1200 core = 0.0017 < 0.02.
	if MeetsRequirements(l, 1, DefaultSpec, at, DefaultRequirements) {
		t.Fatal("sparse core must be rejected by density")
	}
	if !MeetsRequirements(l, 1, DefaultSpec, at, Requirements{MinPolyCount: 1}) {
		t.Fatal("count-only requirement must pass")
	}
	if MeetsRequirements(l, 1, DefaultSpec, at, Requirements{MinPolyCount: 2}) {
		t.Fatal("count filter must reject single rect")
	}
	// Border distance: the single rect is near the window center... its
	// bounding box is far from the clip boundary, so a tight limit rejects.
	if MeetsRequirements(l, 1, DefaultSpec, at, Requirements{MaxBorderDist: 100}) {
		t.Fatal("border-distance filter must reject")
	}
	// Empty window under border check.
	if MeetsRequirements(l, 1, DefaultSpec, geom.Pt(100000, 100000), Requirements{MaxBorderDist: 1440}) {
		t.Fatal("empty clip must be rejected")
	}
}

func TestWindowScanCountMatchesPaperFormula(t *testing.T) {
	// Table V: Array_benchmark1 is 0.110mm x 0.115mm -> 34,953 clips at
	// 50% overlap with a 1.2um window (183 * 191).
	bounds := geom.R(0, 0, 110000, 115000)
	if got := WindowScanCount(bounds, DefaultSpec, 0.5); got != 34953 {
		t.Fatalf("window count: %d, want 34953", got)
	}
	// Array_benchmark5: 0.222mm x 0.222mm -> 136,900 (370^2).
	bounds = geom.R(0, 0, 222000, 222000)
	if got := WindowScanCount(bounds, DefaultSpec, 0.5); got != 136900 {
		t.Fatalf("window count: %d, want 136900", got)
	}
}

func BenchmarkExtract(b *testing.B) {
	l := testLayout()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Extract(l, 1, DefaultSpec, DefaultRequirements)
	}
}
