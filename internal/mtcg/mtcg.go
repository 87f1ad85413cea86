// Package mtcg builds the Modified Transitive Closure Graphs of [6] used
// by critical feature extraction (§III-C, Fig. 6): the core region is tiled
// horizontally and vertically into maximal block and space tiles, and
// constraint graphs Ch / Cv with diagonal edges are constructed over the
// tiles by plane sweep.
package mtcg

import (
	"cmp"
	"slices"
	"sort"

	"hotspot/internal/geom"
)

// Tile is one block or space tile of a tiling.
type Tile struct {
	// R is the tile extent.
	R geom.Rect
	// Block is true for polygon tiles (MTCG dots), false for space tiles
	// (MTCG circles).
	Block bool
}

// Tiling is a maximal tiling of a window: the tiles partition the window.
type Tiling struct {
	// Horizontal records the strip direction: true when the window was cut
	// into horizontal strips (tiles maximal in x).
	Horizontal bool
	// Window is the tiled region.
	Window geom.Rect
	// Tiles lists the tiles in (Y0, X0) order; no two tiles of a
	// partition share a lower-left corner.
	Tiles []Tile
}

// Tile builds the horizontal (strips maximal in x) or vertical tiling of
// the window. Overlapping input rectangles are allowed.
func Build(rects []geom.Rect, window geom.Rect, horizontal bool) Tiling {
	t := Tiling{Horizontal: horizontal, Window: window}
	clipped := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	// Strip boundaries: edges perpendicular to the strip direction.
	var cuts []geom.Coord
	for _, r := range clipped {
		if horizontal {
			cuts = append(cuts, r.Y0, r.Y1)
		} else {
			cuts = append(cuts, r.X0, r.X1)
		}
	}
	if horizontal {
		cuts = append(cuts, window.Y0, window.Y1)
	} else {
		cuts = append(cuts, window.X0, window.X1)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	cuts = dedup(cuts)

	type strip struct {
		lo, hi geom.Coord
		tiles  []Tile
	}
	var strips []strip
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if lo >= hi {
			continue
		}
		s := strip{lo: lo, hi: hi}
		// Block intervals along the strip.
		var iv [][2]geom.Coord
		for _, r := range clipped {
			if horizontal {
				if r.Y0 <= lo && r.Y1 >= hi {
					iv = append(iv, [2]geom.Coord{r.X0, r.X1})
				}
			} else {
				if r.X0 <= lo && r.X1 >= hi {
					iv = append(iv, [2]geom.Coord{r.Y0, r.Y1})
				}
			}
		}
		merged := mergeIntervals(iv)
		var a0, a1 geom.Coord
		if horizontal {
			a0, a1 = window.X0, window.X1
		} else {
			a0, a1 = window.Y0, window.Y1
		}
		pos := a0
		emit := func(x0, x1 geom.Coord, block bool) {
			if x0 >= x1 {
				return
			}
			var r geom.Rect
			if horizontal {
				r = geom.Rect{X0: x0, Y0: lo, X1: x1, Y1: hi}
			} else {
				r = geom.Rect{X0: lo, Y0: x0, X1: hi, Y1: x1}
			}
			s.tiles = append(s.tiles, Tile{R: r, Block: block})
		}
		for _, seg := range merged {
			emit(pos, seg[0], false)
			emit(seg[0], seg[1], true)
			pos = seg[1]
		}
		emit(pos, a1, false)
		strips = append(strips, s)
	}

	// Merge tiles across adjacent strips when type and cross-extent agree,
	// producing maximal tiles.
	for si := range strips {
		if si == 0 {
			t.Tiles = append(t.Tiles, strips[si].tiles...)
			continue
		}
		for _, tile := range strips[si].tiles {
			mergedIn := false
			for ti := range t.Tiles {
				prev := &t.Tiles[ti]
				if prev.Block != tile.Block {
					continue
				}
				if t.Horizontal {
					if prev.R.X0 == tile.R.X0 && prev.R.X1 == tile.R.X1 && prev.R.Y1 == tile.R.Y0 {
						prev.R.Y1 = tile.R.Y1
						mergedIn = true
						break
					}
				} else {
					if prev.R.Y0 == tile.R.Y0 && prev.R.Y1 == tile.R.Y1 && prev.R.X1 == tile.R.X0 {
						prev.R.X1 = tile.R.X1
						mergedIn = true
						break
					}
				}
			}
			if !mergedIn {
				t.Tiles = append(t.Tiles, tile)
			}
		}
	}
	sort.Slice(t.Tiles, func(i, j int) bool {
		a, b := t.Tiles[i].R, t.Tiles[j].R
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		return a.X0 < b.X0
	})
	return t
}

func dedup(v []geom.Coord) []geom.Coord {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func mergeIntervals(iv [][2]geom.Coord) [][2]geom.Coord {
	if len(iv) == 0 {
		return nil
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	out := iv[:1]
	for _, seg := range iv[1:] {
		last := &out[len(out)-1]
		if seg[0] <= last[1] {
			if seg[1] > last[1] {
				last[1] = seg[1]
			}
		} else {
			out = append(out, seg)
		}
	}
	return out
}

// Graph is an MTCG over a tiling: the horizontal constraint graph Ch
// (left-to-right edges), the vertical constraint graph Cv (bottom-to-top
// edges), and — for horizontally tiled graphs — diagonal edges between
// corner-adjacent same-type tiles.
type Graph struct {
	T Tiling
	// Right[i] lists tiles immediately right-adjacent to tile i with
	// overlapping y-projections (Ch edges i -> j).
	Right [][]int
	// Up[i] lists tiles immediately above tile i with overlapping
	// x-projections (Cv edges i -> j).
	Up [][]int
	// Left and Down are the reverse adjacencies of Right and Up: Left[i]
	// lists the tiles j with i in Right[j], Down[i] those with i in Up[j].
	Left, Down [][]int
	// Diag lists diagonal edges as tile index pairs (lower tile first).
	Diag [][2]int
}

// NewGraph builds the constraint graphs of a tiling. Diagonal edges are
// added only for horizontal tilings, per [6]. Every adjacency list is in
// ascending tile order.
func NewGraph(t Tiling) *Graph {
	n := len(t.Tiles)
	g := &Graph{
		T:     t,
		Right: make([][]int, n),
		Up:    make([][]int, n),
		Left:  make([][]int, n),
		Down:  make([][]int, n),
	}
	// A tile's right (upper) neighbours start where it ends: look them up
	// among the tiles sorted by X0, ties in index order (in t.Tiles, which
	// is in Y0 order already).
	byX0 := sortedByX0(t.Tiles)
	for i, a := range t.Tiles {
		// Ch: b immediately right of a, y-projections overlap.
		for _, j := range startingAtX(byX0, t.Tiles, a.R.X1) {
			if b := t.Tiles[j]; a.R.Y0 < b.R.Y1 && b.R.Y0 < a.R.Y1 {
				g.Right[i] = append(g.Right[i], j)
			}
		}
		// Cv: b immediately above a, x-projections overlap.
		j := sort.Search(n, func(k int) bool { return t.Tiles[k].R.Y0 >= a.R.Y1 })
		for ; j < n && t.Tiles[j].R.Y0 == a.R.Y1; j++ {
			if b := t.Tiles[j]; a.R.X0 < b.R.X1 && b.R.X0 < a.R.X1 {
				g.Up[i] = append(g.Up[i], j)
			}
		}
	}
	for j := range t.Tiles {
		for _, i := range g.Right[j] {
			g.Left[i] = append(g.Left[i], j)
		}
		for _, i := range g.Up[j] {
			g.Down[i] = append(g.Down[i], j)
		}
	}
	if t.Horizontal {
		g.addDiagonals()
	}
	return g
}

// sortedByX0 returns the tile indices ordered by X0, ties in index order.
func sortedByX0(tiles []Tile) []int {
	idx := make([]int, len(tiles))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(tiles[a].R.X0, tiles[b].R.X0) })
	return idx
}

// startingAtX returns the run of byX0 (from sortedByX0) whose tiles start
// at x.
func startingAtX(byX0 []int, tiles []Tile, x geom.Coord) []int {
	lo := sort.Search(len(byX0), func(k int) bool { return tiles[byX0[k]].R.X0 >= x })
	hi := lo
	for hi < len(byX0) && tiles[byX0[hi]].R.X0 == x {
		hi++
	}
	return byX0[lo:hi]
}

// addDiagonals adds an edge between two same-type tiles whose y-projections
// do not overlap and whose facing corner region contains no other tile of
// the same type.
func (g *Graph) addDiagonals() {
	tiles := g.T.Tiles
	for i := 0; i < len(tiles); i++ {
		for j := 0; j < len(tiles); j++ {
			a, b := tiles[i], tiles[j]
			if i == j || a.Block != b.Block {
				continue
			}
			// b strictly above a (no y overlap), per the definition.
			if b.R.Y0 < a.R.Y1 {
				continue
			}
			// Corner region between the facing corners.
			var corner geom.Rect
			switch {
			case b.R.X0 >= a.R.X1: // b up-right of a
				corner = geom.Rect{X0: a.R.X1, Y0: a.R.Y1, X1: b.R.X0, Y1: b.R.Y0}
			case b.R.X1 <= a.R.X0: // b up-left of a
				corner = geom.Rect{X0: b.R.X1, Y0: a.R.Y1, X1: a.R.X0, Y1: b.R.Y0}
			default:
				continue // x-projections overlap: a Cv relation, not diagonal
			}
			// Adjacency: no same-type tile intrudes into the corner region
			// (closed region: a tile merely touching the diagonal span
			// blocks it too, which keeps only the nearest corner pairs).
			blocked := false
			for k, c := range tiles {
				if k == i || k == j || c.Block != a.Block {
					continue
				}
				if c.R.Touches(corner) {
					blocked = true
					break
				}
			}
			if !blocked {
				g.Diag = append(g.Diag, [2]int{i, j})
			}
		}
	}
}

// BoundaryEdges returns how many of the tile's four edges lie on the
// tiling window boundary.
func (t Tiling) BoundaryEdges(i int) int {
	r := t.Tiles[i].R
	n := 0
	if r.X0 == t.Window.X0 {
		n++
	}
	if r.X1 == t.Window.X1 {
		n++
	}
	if r.Y0 == t.Window.Y0 {
		n++
	}
	if r.Y1 == t.Window.Y1 {
		n++
	}
	return n
}
