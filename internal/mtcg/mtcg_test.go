package mtcg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hotspot/internal/geom"
)

func window() geom.Rect { return geom.R(0, 0, 100, 100) }

func TestEmptyWindowSingleSpaceTile(t *testing.T) {
	tl := Build(nil, window(), true)
	if len(tl.Tiles) != 1 || tl.Tiles[0].Block || tl.Tiles[0].R != window() {
		t.Fatalf("tiles: %+v", tl.Tiles)
	}
}

func TestSingleBlockTiling(t *testing.T) {
	// A centred block: horizontal tiling gives 3 strips; the middle strip
	// splits into space/block/space; outer space strips merge with nothing
	// (different x-extent), so 5 tiles total.
	tl := Build([]geom.Rect{geom.R(40, 40, 60, 60)}, window(), true)
	if len(tl.Tiles) != 5 {
		t.Fatalf("tile count: %d, want 5 (%+v)", len(tl.Tiles), tl.Tiles)
	}
	checkPartition(t, tl)
	blocks := blockTiles(tl)
	if len(blocks) != 1 || tl.Tiles[blocks[0]].R != geom.R(40, 40, 60, 60) {
		t.Fatalf("block tiles: %v", blocks)
	}
}

// blockTiles returns the indices of tl's block tiles.
func blockTiles(tl Tiling) []int {
	var out []int
	for i, tile := range tl.Tiles {
		if tile.Block {
			out = append(out, i)
		}
	}
	return out
}

// checkPartition verifies the tiles exactly partition the window.
func checkPartition(t *testing.T, tl Tiling) {
	t.Helper()
	var area int64
	for i, a := range tl.Tiles {
		if a.R.Empty() {
			t.Fatalf("tile %d empty", i)
		}
		if !tl.Window.ContainsRect(a.R) {
			t.Fatalf("tile %d escapes window: %v", i, a.R)
		}
		area += a.R.Area()
		for j := i + 1; j < len(tl.Tiles); j++ {
			if a.R.Overlaps(tl.Tiles[j].R) {
				t.Fatalf("tiles %d and %d overlap: %v %v", i, j, a.R, tl.Tiles[j].R)
			}
		}
	}
	if area != tl.Window.Area() {
		t.Fatalf("tiling area %d != window %d", area, tl.Window.Area())
	}
}

func TestTilingBlocksCoverGeometry(t *testing.T) {
	rects := []geom.Rect{
		geom.R(0, 0, 30, 100),
		geom.R(50, 20, 80, 60),
		geom.R(50, 60, 60, 90), // touches previous: same polygon network
	}
	for _, horizontal := range []bool{true, false} {
		tl := Build(rects, window(), horizontal)
		checkPartition(t, tl)
		var blockArea int64
		for _, tile := range tl.Tiles {
			if tile.Block {
				blockArea += tile.R.Area()
			}
		}
		if blockArea != geom.TotalArea(rects) {
			t.Fatalf("horizontal=%v: block area %d != geometry %d", horizontal, blockArea, geom.TotalArea(rects))
		}
	}
}

func TestMaximalMerge(t *testing.T) {
	// A full-height bar: horizontal tiling must merge its strips into one
	// maximal block tile even when another rect forces strip cuts.
	rects := []geom.Rect{
		geom.R(0, 0, 20, 100),  // full-height bar
		geom.R(60, 40, 90, 70), // forces strip cuts at y=40,70
	}
	tl := Build(rects, window(), true)
	checkPartition(t, tl)
	found := false
	for _, tile := range tl.Tiles {
		if tile.Block && tile.R == geom.R(0, 0, 20, 100) {
			found = true
		}
	}
	if !found {
		t.Fatalf("full-height bar not merged into a maximal tile: %+v", tl.Tiles)
	}
}

func TestGraphAdjacency(t *testing.T) {
	// mountain-like: two blocks side by side with a space between.
	rects := []geom.Rect{
		geom.R(0, 0, 30, 100),
		geom.R(70, 0, 100, 100),
	}
	tl := Build(rects, window(), true)
	g := NewGraph(tl)
	// Expect 3 tiles: block, space, block (full height each).
	if len(tl.Tiles) != 3 {
		t.Fatalf("tiles: %+v", tl.Tiles)
	}
	// Find the space tile; it must have Right edges to the right block and
	// be the Right target of the left block.
	var spaceIdx, leftIdx, rightIdx int
	for i, tile := range tl.Tiles {
		switch {
		case !tile.Block:
			spaceIdx = i
		case tile.R.X0 == 0:
			leftIdx = i
		default:
			rightIdx = i
		}
	}
	if !contains(g.Right[leftIdx], spaceIdx) {
		t.Fatalf("left block must point to space: %v", g.Right[leftIdx])
	}
	if !contains(g.Right[spaceIdx], rightIdx) {
		t.Fatalf("space must point to right block: %v", g.Right[spaceIdx])
	}
	if len(g.Up[leftIdx]) != 0 {
		t.Fatalf("full-height tile cannot have Up edges: %v", g.Up[leftIdx])
	}
}

func TestGraphUpEdges(t *testing.T) {
	rects := []geom.Rect{
		geom.R(0, 0, 100, 30),
		geom.R(0, 70, 100, 100),
	}
	tl := Build(rects, window(), true)
	g := NewGraph(tl)
	if len(tl.Tiles) != 3 {
		t.Fatalf("tiles: %+v", tl.Tiles)
	}
	// bottom block -> middle space -> top block via Up.
	var bot, mid, top int
	for i, tile := range tl.Tiles {
		switch {
		case !tile.Block:
			mid = i
		case tile.R.Y0 == 0:
			bot = i
		default:
			top = i
		}
	}
	if !contains(g.Up[bot], mid) || !contains(g.Up[mid], top) {
		t.Fatalf("up chain broken: %v %v", g.Up[bot], g.Up[mid])
	}
}

func TestDiagonalEdges(t *testing.T) {
	// Two blocks in diagonal relation (up-right), nothing between.
	rects := []geom.Rect{
		geom.R(0, 0, 30, 30),
		geom.R(60, 60, 100, 100),
	}
	tl := Build(rects, window(), true)
	g := NewGraph(tl)
	foundBlockDiag := false
	for _, e := range g.Diag {
		a, b := tl.Tiles[e[0]], tl.Tiles[e[1]]
		if a.Block && b.Block {
			foundBlockDiag = true
		}
	}
	if !foundBlockDiag {
		t.Fatalf("missing block diagonal edge: %v", g.Diag)
	}
	// Vertical tilings carry no diagonal edges.
	gv := NewGraph(Build(rects, window(), false))
	if len(gv.Diag) != 0 {
		t.Fatalf("vertical tiling must have no diagonals: %v", gv.Diag)
	}
}

func TestDiagonalBlockedByInterposedTile(t *testing.T) {
	// A third block inside the corner region blocks the diagonal.
	rects := []geom.Rect{
		geom.R(0, 0, 30, 30),
		geom.R(60, 60, 100, 100),
		geom.R(40, 40, 50, 50), // interposed
	}
	tl := Build(rects, window(), true)
	g := NewGraph(tl)
	var far, near geom.Rect = geom.R(0, 0, 30, 30), geom.R(60, 60, 100, 100)
	for _, e := range g.Diag {
		a, b := tl.Tiles[e[0]], tl.Tiles[e[1]]
		if a.Block && b.Block && a.R == far && b.R == near {
			t.Fatalf("diagonal across interposed block must be blocked")
		}
	}
}

func TestBoundaryEdges(t *testing.T) {
	tl := Build([]geom.Rect{geom.R(0, 0, 30, 30)}, window(), true)
	for i, tile := range tl.Tiles {
		got := tl.BoundaryEdges(i)
		want := 0
		r := tile.R
		if r.X0 == 0 {
			want++
		}
		if r.X1 == 100 {
			want++
		}
		if r.Y0 == 0 {
			want++
		}
		if r.Y1 == 100 {
			want++
		}
		if got != want {
			t.Fatalf("tile %d boundary edges: %d, want %d", i, got, want)
		}
	}
}

func TestQuickTilingPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rects []geom.Rect
		for i := 0; i < 1+rng.Intn(6); i++ {
			x := geom.Coord(rng.Intn(9) * 10)
			y := geom.Coord(rng.Intn(9) * 10)
			rects = append(rects, geom.R(x, y, x+geom.Coord(1+rng.Intn(4))*10, y+geom.Coord(1+rng.Intn(4))*10))
		}
		for _, horizontal := range []bool{true, false} {
			tl := Build(rects, window(), horizontal)
			var area, blockArea int64
			for i, a := range tl.Tiles {
				area += a.R.Area()
				if a.Block {
					blockArea += a.R.Area()
				}
				for j := i + 1; j < len(tl.Tiles); j++ {
					if a.R.Overlaps(tl.Tiles[j].R) {
						return false
					}
				}
			}
			if area != tl.Window.Area() {
				return false
			}
			clipped := make([]geom.Rect, 0, len(rects))
			for _, r := range rects {
				c := r.Intersect(window())
				if !c.Empty() {
					clipped = append(clipped, c)
				}
			}
			if blockArea != geom.TotalArea(clipped) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func contains(v []int, x int) bool {
	for _, i := range v {
		if i == x {
			return true
		}
	}
	return false
}

func BenchmarkBuildAndGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var rects []geom.Rect
	for i := 0; i < 12; i++ {
		x := geom.Coord(rng.Intn(90) * 10)
		y := geom.Coord(rng.Intn(90) * 10)
		rects = append(rects, geom.R(x, y, x+100, y+geom.Coord(1+rng.Intn(30))*10))
	}
	w := geom.R(0, 0, 1200, 1200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewGraph(Build(rects, w, true))
	}
}
