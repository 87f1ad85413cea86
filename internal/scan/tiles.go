package scan

import (
	"errors"
	"fmt"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// maxTiles bounds the tile grid Run accepts, at the cell ceiling of
// layout.Grid. A grid above it is a hostile or mistaken request (a few
// rectangles at opposite corners of the coordinate range), not a chip.
const maxTiles = layout.MaxGridCells

// ErrTooManyTiles reports a scan whose tile grid would exceed maxTiles
// tiles at the requested tile side.
var ErrTooManyTiles = errors.New("scan: tile grid too large")

// checkTileGrid returns ErrTooManyTiles when bounds make more than
// maxTiles tiles at side, naming the smallest side that fits.
func checkTileGrid(bounds geom.Rect, side geom.Coord) error {
	if tilesFit(bounds, side) {
		return nil
	}
	nx, ny := bounds.Cells(side)
	return fmt.Errorf("%w: %v at tile side %d is %d x %d tiles, above the %d-tile limit; raise the tile side to at least %d",
		ErrTooManyTiles, bounds, side, nx, ny, maxTiles, minTileSide(bounds, side))
}

// tilesFit reports whether bounds make at most maxTiles tiles at side.
func tilesFit(bounds geom.Rect, side geom.Coord) bool {
	nx, ny := bounds.Cells(side)
	return nx <= maxTiles && ny <= maxTiles && nx*ny <= maxTiles
}

// minTileSide returns the smallest side above tooSmall at which bounds fit
// in maxTiles tiles. A side of 1<<21 tiles any int32 extent in 2048 x 2048
// tiles, so the binary search starts below it.
func minTileSide(bounds geom.Rect, tooSmall geom.Coord) geom.Coord {
	lo, hi := tooSmall, geom.Coord(1<<21)
	for lo+1 < hi {
		if mid := lo + (hi-lo)/2; tilesFit(bounds, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// DefaultTile is the tile side a scan of span uses when none is given:
// DefaultTileFactor clip sides, raised to the smallest side at which span
// fits in the tile ceiling. The side never changes what a scan reports,
// only how its work is cut, so a sparse layout spanning more than the
// ceiling at the default side still scans.
func DefaultTile(spec clip.Spec, span geom.Rect) geom.Coord {
	side := DefaultTileFactor * spec.ClipSide
	if !tilesFit(span, side) {
		side = minTileSide(span, side)
	}
	return side
}

// tileGrid partitions bounds into a row-major grid of side-by-side tiles
// of the given side (edge tiles are clipped to the bounds), addressed by
// index so a scan never materializes its tile list. Tiles are half-open on
// both axes, so every dissection anchor — which always lies strictly
// inside the bounds on its low sides — belongs to exactly one tile. Tile
// edges step in int64, so a side reaching past the int32 range ends the
// row instead of wrapping; callers bound the count with checkTileGrid.
type tileGrid struct {
	bounds geom.Rect
	side   geom.Coord
	nx, n  int64
}

func newTileGrid(bounds geom.Rect, side geom.Coord) tileGrid {
	nx, ny := bounds.Cells(side)
	return tileGrid{bounds: bounds, side: side, nx: nx, n: nx * ny}
}

// tile returns tile i of the grid, 0 <= i < g.n.
func (g tileGrid) tile(i int64) geom.Rect {
	edge := func(lo geom.Coord, i int64, hi geom.Coord) geom.Coord {
		return geom.Coord(min(int64(lo)+i*int64(g.side), int64(hi)))
	}
	ix, iy := i%g.nx, i/g.nx
	b := g.bounds
	return geom.Rect{
		X0: edge(b.X0, ix, b.X1), Y0: edge(b.Y0, iy, b.Y1),
		X1: edge(b.X0, ix+1, b.X1), Y1: edge(b.Y0, iy+1, b.Y1),
	}
}

// quadrants splits a tile at its midpoints into up to four half-open
// children, or returns nil when any resulting side would drop below
// minSide (the tile is then too small to split safely). Degenerate
// children (a tile only one cell wide splits into two, not four) are
// omitted.
func quadrants(t geom.Rect, minSide geom.Coord) []geom.Rect {
	mx := t.X0 + t.W()/2
	my := t.Y0 + t.H()/2
	splitX := mx-t.X0 >= minSide && t.X1-mx >= minSide
	splitY := my-t.Y0 >= minSide && t.Y1-my >= minSide
	if !splitX && !splitY {
		return nil
	}
	xs := []geom.Coord{t.X0, t.X1}
	if splitX {
		xs = []geom.Coord{t.X0, mx, t.X1}
	}
	ys := []geom.Coord{t.Y0, t.Y1}
	if splitY {
		ys = []geom.Coord{t.Y0, my, t.Y1}
	}
	var out []geom.Rect
	for yi := 0; yi+1 < len(ys); yi++ {
		for xi := 0; xi+1 < len(xs); xi++ {
			out = append(out, geom.Rect{X0: xs[xi], Y0: ys[yi], X1: xs[xi+1], Y1: ys[yi+1]})
		}
	}
	return out
}
