package geom

import (
	"errors"
	"fmt"
	"sort"
)

// Polygon is a simple rectilinear (Manhattan) polygon given as an ordered
// vertex ring. Consecutive vertices must differ in exactly one coordinate.
// The ring is implicitly closed: the last vertex connects back to the first.
type Polygon struct {
	Pts []Point
}

// ErrNotRectilinear is returned when a polygon ring contains a non-Manhattan
// edge (both coordinates change between consecutive vertices).
var ErrNotRectilinear = errors.New("geom: polygon edge is not axis-aligned")

// Validate checks that the polygon is rectilinear and has at least four
// vertices.
func (p Polygon) Validate() error {
	if len(p.Pts) < 4 {
		return fmt.Errorf("geom: polygon has %d vertices, need >= 4", len(p.Pts))
	}
	for i := range p.Pts {
		a := p.Pts[i]
		b := p.Pts[(i+1)%len(p.Pts)]
		if a.X != b.X && a.Y != b.Y {
			return ErrNotRectilinear
		}
		if a == b {
			return fmt.Errorf("geom: degenerate zero-length edge at vertex %d", i)
		}
	}
	return nil
}

// Bounds returns the bounding box of the polygon.
func (p Polygon) Bounds() Rect {
	if len(p.Pts) == 0 {
		return Rect{}
	}
	bb := Rect{p.Pts[0].X, p.Pts[0].Y, p.Pts[0].X, p.Pts[0].Y}
	for _, pt := range p.Pts[1:] {
		bb.X0 = min32(bb.X0, pt.X)
		bb.Y0 = min32(bb.Y0, pt.Y)
		bb.X1 = max32(bb.X1, pt.X)
		bb.Y1 = max32(bb.Y1, pt.Y)
	}
	return bb
}

// Area returns the absolute enclosed area (shoelace formula).
func (p Polygon) Area() int64 {
	var twice int64
	n := len(p.Pts)
	for i := 0; i < n; i++ {
		a, b := p.Pts[i], p.Pts[(i+1)%n]
		twice += int64(a.X)*int64(b.Y) - int64(b.X)*int64(a.Y)
	}
	if twice < 0 {
		twice = -twice
	}
	return twice / 2
}

// Translate returns a copy of the polygon shifted by (dx, dy).
func (p Polygon) Translate(dx, dy Coord) Polygon {
	out := Polygon{Pts: make([]Point, len(p.Pts))}
	for i, pt := range p.Pts {
		out.Pts[i] = Point{pt.X + dx, pt.Y + dy}
	}
	return out
}

// edge is a vertical polygon edge used by the decomposition sweep.
type vEdge struct {
	x        Coord
	y0, y1   Coord // y0 < y1
	entering bool  // true when polygon interior is to the right of the edge
}

// Rects decomposes the rectilinear polygon into non-overlapping rectangles
// whose union is exactly the polygon interior, by sweeping its vertical
// edges left to right. The polygon may be clockwise or counterclockwise.
func (p Polygon) Rects() ([]Rect, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Ensure counterclockwise orientation so "interior to the right" of an
	// upward edge holds.
	pts := p.Pts
	if signedArea(pts) < 0 {
		pts = make([]Point, len(p.Pts))
		for i := range p.Pts {
			pts[i] = p.Pts[len(p.Pts)-1-i]
		}
	}
	var edges []vEdge
	n := len(pts)
	for i := 0; i < n; i++ {
		a, b := pts[i], pts[(i+1)%n]
		if a.X != b.X {
			continue // horizontal edge
		}
		if a.Y == b.Y {
			continue
		}
		e := vEdge{x: a.X}
		if a.Y > b.Y { // downward edge: interior to the left of travel = right of the sweep (CCW)
			e.y0, e.y1, e.entering = b.Y, a.Y, true
		} else {
			e.y0, e.y1, e.entering = a.Y, b.Y, false
		}
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].x != edges[j].x {
			return edges[i].x < edges[j].x
		}
		if edges[i].y0 != edges[j].y0 {
			return edges[i].y0 < edges[j].y0
		}
		// Process exiting edges before entering ones at the same location so
		// touching-at-x regions do not merge.
		return !edges[i].entering && edges[j].entering
	})

	// Active y-intervals open since some x, as a set of [y0, y1) intervals
	// with the x at which they became active.
	type open struct {
		y0, y1 Coord
		sinceX Coord
	}
	var active []open
	var out []Rect

	flush := func(y0, y1, atX Coord) {
		// Close the parts of active intervals overlapping [y0, y1),
		// emitting rectangles, and re-open any remainder pieces.
		var next []open
		for _, iv := range active {
			if iv.y1 <= y0 || iv.y0 >= y1 {
				next = append(next, iv)
				continue
			}
			lo := max32(iv.y0, y0)
			hi := min32(iv.y1, y1)
			if atX > iv.sinceX {
				out = append(out, Rect{iv.sinceX, lo, atX, hi})
			}
			if iv.y0 < lo {
				next = append(next, open{iv.y0, lo, iv.sinceX})
			}
			if hi < iv.y1 {
				next = append(next, open{hi, iv.y1, iv.sinceX})
			}
		}
		active = next
	}

	for _, e := range edges {
		if e.entering {
			// Close any overlap first (shouldn't occur for simple polygons),
			// then open the interval at this x.
			flush(e.y0, e.y1, e.x)
			active = append(active, open{e.y0, e.y1, e.x})
		} else {
			flush(e.y0, e.y1, e.x)
		}
	}
	if len(active) != 0 {
		return nil, fmt.Errorf("geom: polygon sweep left %d unclosed intervals (self-intersecting ring?)", len(active))
	}
	return mergeAdjacentRects(out), nil
}

func signedArea(pts []Point) int64 {
	var twice int64
	n := len(pts)
	for i := 0; i < n; i++ {
		a, b := pts[i], pts[(i+1)%n]
		twice += int64(a.X)*int64(b.Y) - int64(b.X)*int64(a.Y)
	}
	return twice
}

// mergeAdjacentRects merges horizontally abutting rectangles with identical
// y-spans to keep decompositions canonical and small.
func mergeAdjacentRects(rects []Rect) []Rect {
	if len(rects) < 2 {
		return rects
	}
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].Y0 != rects[j].Y0 {
			return rects[i].Y0 < rects[j].Y0
		}
		if rects[i].Y1 != rects[j].Y1 {
			return rects[i].Y1 < rects[j].Y1
		}
		return rects[i].X0 < rects[j].X0
	})
	out := rects[:1]
	for _, r := range rects[1:] {
		last := &out[len(out)-1]
		if last.Y0 == r.Y0 && last.Y1 == r.Y1 && last.X1 == r.X0 {
			last.X1 = r.X1
		} else {
			out = append(out, r)
		}
	}
	return out
}
