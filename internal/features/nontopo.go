package features

import (
	"math"
	"slices"

	"hotspot/internal/geom"
	"hotspot/internal/mtcg"
)

// NonTopo holds the five nontopological (lithography-process-related)
// features of §III-C, Fig. 7(e).
type NonTopo struct {
	// Corners is the number of polygon corners (convex plus concave) of
	// the geometry union inside the window.
	Corners int
	// Touches is the number of corner-to-corner touching points.
	Touches int
	// MinInternal is the minimum distance between a pair of internally
	// facing polygon edges (the narrowest polygon dimension), 0 when
	// there is no geometry.
	MinInternal geom.Coord
	// MinExternal is the minimum distance between a pair of externally
	// facing polygon edges (the narrowest spacing), 0 when there are no
	// facing pairs.
	MinExternal geom.Coord
	// Density is the polygon density of the window.
	Density float64
}

// Vector renders the nontopological features as a feature subvector.
func (n NonTopo) Vector() []float64 {
	return []float64{
		float64(n.Corners),
		float64(n.Touches),
		float64(n.MinInternal),
		float64(n.MinExternal),
		n.Density,
	}
}

// NonTopoDim is the length of the nontopological subvector.
const NonTopoDim = 5

// ComputeNonTopo extracts the five nontopological features of the geometry
// within window.
func ComputeNonTopo(rects []geom.Rect, window geom.Rect) NonTopo {
	clipped := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	gh, gv := buildGraphs(clipped, window)
	return nonTopo(clipped, window, gh, gv)
}

// nonTopo computes the nontopological features of clipped (already clipped
// to window) from its horizontal and vertical graphs gh and gv.
func nonTopo(clipped []geom.Rect, window geom.Rect, gh, gv *mtcg.Graph) NonTopo {
	var out NonTopo
	out.Corners, out.Touches = cornersAndTouches(clipped)
	out.MinInternal, out.MinExternal = minDistances(gh, gv)
	if !window.Empty() {
		out.Density = float64(geom.TotalArea(clipped)) / float64(window.Area())
	}
	return out
}

// cornersAndTouches counts corners and corner-touch points of the union of
// rects by classifying every candidate vertex by its four filled quadrants:
// 1 or 3 filled quadrants is a corner; 2 diagonal quadrants is a touch
// point. The candidate vertices are the full grid of edge coordinates, so
// that union corners formed by overlapping rectangles are found too; the
// quadrants around them are the cells of that grid, whose coverage is one
// 2-D prefix sum over the rectangles' painted corners.
func cornersAndTouches(rects []geom.Rect) (corners, touches int) {
	xs := make([]geom.Coord, 0, 2*len(rects))
	ys := make([]geom.Coord, 0, 2*len(rects))
	for _, r := range rects {
		xs = append(xs, r.X0, r.X1)
		ys = append(ys, r.Y0, r.Y1)
	}
	slices.Sort(xs)
	slices.Sort(ys)
	xs, ys = slices.Compact(xs), slices.Compact(ys)
	// cover[(j+1)*stride + i+1] counts the rectangles over the cell
	// [xs[i], xs[i+1]) x [ys[j], ys[j+1]); the border row and column
	// (index 0 and the last) lie outside every rectangle.
	stride := len(xs) + 1
	cover := make([]int32, stride*(len(ys)+1))
	at := func(v []geom.Coord, c geom.Coord) int {
		i, _ := slices.BinarySearch(v, c)
		return i + 1
	}
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		x0, x1, y0, y1 := at(xs, r.X0), at(xs, r.X1), at(ys, r.Y0), at(ys, r.Y1)
		cover[y0*stride+x0]++
		cover[y0*stride+x1]--
		cover[y1*stride+x0]--
		cover[y1*stride+x1]++
	}
	for j := 1; j < len(ys)+1; j++ {
		for i := 1; i < stride; i++ {
			k := j*stride + i
			cover[k] += cover[k-1] + cover[k-stride] - cover[k-stride-1]
		}
	}
	// Vertex (xs[i-1], ys[j-1]) has its lower-left quadrant at (i-1, j-1)
	// of cover and its upper-right one at (i, j).
	for j := 1; j <= len(ys); j++ {
		for i := 1; i <= len(xs); i++ {
			ll := cover[j*stride+i-stride-1] > 0
			lr := cover[j*stride+i-stride] > 0
			ul := cover[j*stride+i-1] > 0
			ur := cover[j*stride+i] > 0
			switch b2i(ll) + b2i(lr) + b2i(ul) + b2i(ur) {
			case 1, 3:
				corners++
			case 2:
				if ll == ur {
					touches++
				}
			}
		}
	}
	return corners, touches
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// minDistances returns the narrowest polygon dimension (internal) and the
// narrowest facing-edge spacing (external), measured on the maximal MTCG
// tilings so that rectangle decomposition seams do not show up as edges:
// the horizontal tiling's block tiles give local x-dimensions and its
// blocked-on-both-sides space tiles give x-spacings; the vertical tiling
// gives the y counterparts.
func minDistances(gh, gv *mtcg.Graph) (internal, external geom.Coord) {
	internal = math.MaxInt32
	external = math.MaxInt32
	for _, g := range [2]*mtcg.Graph{gh, gv} {
		t := g.T
		dim := func(r geom.Rect) geom.Coord {
			if t.Horizontal {
				return r.W()
			}
			return r.H()
		}
		fwd, back := g.Right, g.Left
		if !t.Horizontal {
			fwd, back = g.Up, g.Down
		}
		for i, tile := range t.Tiles {
			if tile.Block {
				if d := dim(tile.R); d < internal {
					internal = d
				}
				continue
			}
			// Space tile: a spacing only when blocks face each other
			// across it.
			if hasBlock(t, fwd[i]) && hasBlock(t, back[i]) {
				if d := dim(tile.R); d < external {
					external = d
				}
			}
		}
	}
	if internal == math.MaxInt32 {
		internal = 0
	}
	if external == math.MaxInt32 {
		external = 0
	}
	return internal, external
}
