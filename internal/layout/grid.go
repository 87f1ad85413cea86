package layout

import (
	"math"

	"hotspot/internal/geom"
)

// Grid is a uniform-grid spatial index over a fixed set of rectangles.
// Each rectangle is registered in every cell it overlaps. A query visits the
// cells overlapping the window and reports each rectangle exactly once using
// the canonical-cell rule (a rectangle is reported only from the top-left
// cell of the intersection of its cell range with the query's cell range),
// which keeps queries stateless and safe for concurrent use.
type Grid struct {
	bounds geom.Rect
	cell   geom.Coord // cell side
	nx, ny int
	cells  [][]int32 // rect indices per cell
	rects  []geom.Rect
}

// MaxGridCells bounds the cells of a Grid: NewGrid doubles the cell side
// until the grid fits, so an index over a sparse, wide extent stays a few
// tens of megabytes of cell headers.
const MaxGridCells = 1 << 22

// A Grid over n rectangles has at most max(cellsPerRect*n, minGridCells)
// cells (and never more than MaxGridCells), so a few rectangles far apart
// index into a few kilobytes of cell headers instead of megabytes. Dense
// layouts and clip-core sets stay well under the bound (at most about 8
// cells per rectangle on the benchmark layouts), so it changes no grid
// there.
const (
	cellsPerRect = 16
	minGridCells = 1 << 12
)

// NewGrid indexes rects. The cell size is derived from the average rectangle
// dimension so that typical rectangles span only a few cells, and doubled
// while the grid has more cells than its bound (see cellsPerRect). Empty
// rectangles overlap nothing, so they are neither indexed nor counted.
// Sizes are computed in int64, so no extent or cell side wraps.
func NewGrid(rects []geom.Rect) *Grid {
	g := &Grid{rects: rects, nx: 1, ny: 1, cell: 1}
	var sumDim, n int64
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		g.bounds = g.bounds.Union(r)
		sumDim += int64(r.X1) - int64(r.X0) + int64(r.Y1) - int64(r.Y0)
		n++
	}
	if n == 0 {
		g.cells = make([][]int32, 1)
		return g
	}
	w := int64(g.bounds.X1) - int64(g.bounds.X0)
	h := int64(g.bounds.Y1) - int64(g.bounds.Y0)
	// Cell side: 4x the average dimension, doubled until the grid has at
	// most maxCells cells; a side too large to double is one cell.
	cell := min(max(sumDim/(2*n), 1)*4, math.MaxInt32)
	maxCells := min(max(cellsPerRect*n, minGridCells), MaxGridCells)
	for {
		if nx, ny := w/cell+1, h/cell+1; nx*ny <= maxCells {
			g.nx, g.ny = int(nx), int(ny)
			break
		}
		if cell > math.MaxInt32/2 {
			break
		}
		cell *= 2
	}
	g.cell = geom.Coord(cell)
	g.cells = make([][]int32, g.nx*g.ny)
	for i, r := range rects {
		if r.Empty() {
			continue
		}
		x0, x1, y0, y1 := g.cellRange(r)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				ci := y*g.nx + x
				g.cells[ci] = append(g.cells[ci], int32(i))
			}
		}
	}
	return g
}

func (g *Grid) cellRange(r geom.Rect) (x0, x1, y0, y1 int) {
	return g.cellX(r.X0), g.cellX(r.X1 - 1), g.cellY(r.Y0), g.cellY(r.Y1 - 1)
}

func (g *Grid) cellX(x geom.Coord) int {
	return min(max(int((int64(x)-int64(g.bounds.X0))/int64(g.cell)), 0), g.nx-1)
}

func (g *Grid) cellY(y geom.Coord) int {
	return min(max(int((int64(y)-int64(g.bounds.Y0))/int64(g.cell)), 0), g.ny-1)
}

// Query appends the indexed rectangles overlapping window to dst and returns
// the extended slice. Safe for concurrent use.
func (g *Grid) Query(window geom.Rect, dst []geom.Rect) []geom.Rect {
	if len(g.rects) == 0 || !window.Overlaps(g.bounds) {
		return dst
	}
	w := window.Intersect(g.bounds)
	qx0, qx1, qy0, qy1 := g.cellRange(w)
	for y := qy0; y <= qy1; y++ {
		for x := qx0; x <= qx1; x++ {
			for _, idx := range g.cells[y*g.nx+x] {
				r := g.rects[idx]
				if r.Overlaps(window) && g.canonical(r, x, y, qx0, qy0) {
					dst = append(dst, r)
				}
			}
		}
	}
	return dst
}

// Indices is Query reporting positions in the indexed slice instead of
// rectangles: it appends the index of every indexed rectangle overlapping
// window to dst, once each, in cell order (ascending within a cell, not
// overall). Safe for concurrent use.
func (g *Grid) Indices(window geom.Rect, dst []int) []int {
	if len(g.rects) == 0 || !window.Overlaps(g.bounds) {
		return dst
	}
	w := window.Intersect(g.bounds)
	qx0, qx1, qy0, qy1 := g.cellRange(w)
	for y := qy0; y <= qy1; y++ {
		for x := qx0; x <= qx1; x++ {
			for _, idx := range g.cells[y*g.nx+x] {
				if r := g.rects[idx]; r.Overlaps(window) && g.canonical(r, x, y, qx0, qy0) {
					dst = append(dst, int(idx))
				}
			}
		}
	}
	return dst
}

// canonical reports whether cell (x, y) is where a query whose cell range
// starts at (qx0, qy0) reports r: the first query cell r is registered in.
// Every rectangle overlapping the query is reported exactly once.
func (g *Grid) canonical(r geom.Rect, x, y, qx0, qy0 int) bool {
	return max(g.cellX(r.X0), qx0) == x && max(g.cellY(r.Y0), qy0) == y
}
