package scan

import (
	"errors"
	"fmt"

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

// tilesOver partitions bounds into a grid of side-by-side tiles of the
// given side (edge tiles are clipped to the bounds). Tiles are half-open
// on both axes, so every dissection anchor — which always lies strictly
// inside the bounds on its low sides — belongs to exactly one tile. Tile
// edges step in int64, so a side reaching past the int32 range ends the
// row instead of wrapping; callers bound the count with checkTileGrid.
func tilesOver(bounds geom.Rect, side geom.Coord) []geom.Rect {
	nx, ny := bounds.Cells(side)
	if nx == 0 || ny == 0 {
		return nil
	}
	out := make([]geom.Rect, 0, nx*ny)
	edge := func(lo geom.Coord, i int64, hi geom.Coord) geom.Coord {
		return geom.Coord(min(int64(lo)+i*int64(side), int64(hi)))
	}
	for iy := int64(0); iy < ny; iy++ {
		y0, y1 := edge(bounds.Y0, iy, bounds.Y1), edge(bounds.Y0, iy+1, bounds.Y1)
		for ix := int64(0); ix < nx; ix++ {
			out = append(out, geom.Rect{X0: edge(bounds.X0, ix, bounds.X1), Y0: y0, X1: edge(bounds.X0, ix+1, bounds.X1), Y1: y1})
		}
	}
	return out
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
