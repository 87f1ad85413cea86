// Package geom provides integer rectilinear geometry primitives for layout
// processing: points, rectangles, rectilinear polygons, trapezoidal
// (rectangle) decomposition, and the eight axis-aligned orientation
// transforms used throughout the hotspot-detection framework.
//
// All coordinates are integers in database units (1 dbu = 1 nm in this
// repository). Rectangles are half-open in neither axis: a Rect covers
// [X0, X1) x [Y0, Y1) for area purposes but edge coordinates are inclusive
// geometry, matching GDSII conventions.
package geom

import "fmt"

// Coord is a layout coordinate in database units (nanometres).
type Coord = int32

// Point is a 2-D integer point.
type Point struct {
	X, Y Coord
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y Coord) Point { return Point{x, y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with X0 <= X1 and Y0 <= Y1.
// The zero Rect is the empty rectangle at the origin.
type Rect struct {
	X0, Y0, X1, Y1 Coord
}

// R constructs a normalized rectangle from two corner coordinates.
func R(x0, y0, x1, y1 Coord) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1, y1}
}

// W returns the rectangle width.
func (r Rect) W() Coord { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() Coord { return r.Y1 - r.Y0 }

// Area returns the rectangle area in dbu^2.
func (r Rect) Area() int64 { return int64(r.W()) * int64(r.H()) }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Center returns the centre point (rounded down).
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy Coord) Rect {
	return Rect{r.X0 + dx, r.Y0 + dy, r.X1 + dx, r.Y1 + dy}
}

// Contains reports whether p lies inside r (inclusive of the lower-left
// edges, exclusive of the upper-right edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// ContainsRect reports whether s lies entirely within r (closed test).
func (r Rect) ContainsRect(s Rect) bool {
	return s.X0 >= r.X0 && s.Y0 >= r.Y0 && s.X1 <= r.X1 && s.Y1 <= r.Y1
}

// Overlaps reports whether r and s share positive area. A degenerate
// (empty) rectangle overlaps nothing, even when its zero-width line
// crosses the other rectangle's interior.
func (r Rect) Overlaps(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1 &&
		!r.Empty() && !s.Empty()
}

// Touches reports whether r and s share positive area or abut along an edge
// or corner (closed-rectangle intersection test).
func (r Rect) Touches(s Rect) bool {
	return r.X0 <= s.X1 && s.X0 <= r.X1 && r.Y0 <= s.Y1 && s.Y0 <= r.Y1
}

// Intersect returns the overlap of r and s; the result is Empty when the
// rectangles do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		max32(r.X0, s.X0), max32(r.Y0, s.Y0),
		min32(r.X1, s.X1), min32(r.Y1, s.Y1),
	}
	if out.X0 > out.X1 {
		out.X1 = out.X0
	}
	if out.Y0 > out.Y1 {
		out.Y1 = out.Y0
	}
	return out
}

// Union returns the bounding box of r and s. Empty rectangles are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		min32(r.X0, s.X0), min32(r.Y0, s.Y0),
		max32(r.X1, s.X1), max32(r.Y1, s.Y1),
	}
}

// Expand grows the rectangle by d on every side (shrinks when d < 0).
func (r Rect) Expand(d Coord) Rect {
	return Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
}

// Cells returns the columns and rows of side x side cells, laid from r's
// low corner, that cover r (the last of each clipped to r). It counts in
// int64, so no extent or product wraps; an empty r has none. side must be
// positive.
func (r Rect) Cells(side Coord) (nx, ny int64) {
	if r.Empty() {
		return 0, 0
	}
	s := int64(side)
	return (int64(r.X1) - int64(r.X0) + s - 1) / s, (int64(r.Y1) - int64(r.Y0) + s - 1) / s
}

// OverlapArea returns the shared area of r and s.
func (r Rect) OverlapArea(s Rect) int64 { return r.Intersect(s).Area() }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.X0, r.Y0, r.X1, r.Y1)
}

func min32(a, b Coord) Coord {
	if a < b {
		return a
	}
	return b
}

func max32(a, b Coord) Coord {
	if a > b {
		return a
	}
	return b
}

// BoundingBox returns the bounding box of a set of rectangles.
func BoundingBox(rects []Rect) Rect {
	var bb Rect
	for i, r := range rects {
		if i == 0 {
			bb = r
		} else {
			bb = bb.Union(r)
		}
	}
	return bb
}

// TotalArea returns the area of the union of rects, counting overlapping
// regions once. It runs a coordinate-compressed sweep and is exact.
func TotalArea(rects []Rect) int64 {
	var xs []Coord
	for _, r := range rects {
		if r.Empty() {
			continue
		}
		xs = append(xs, r.X0, r.X1)
	}
	if len(xs) == 0 {
		return 0
	}
	xs = dedupSorted(xs)
	var total int64
	// For each x-strip, collect the y-intervals of rectangles spanning it
	// and measure their union.
	var ys [][2]Coord
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		ys = ys[:0]
		for _, r := range rects {
			if r.X0 <= x0 && r.X1 >= x1 && !r.Empty() {
				ys = append(ys, [2]Coord{r.Y0, r.Y1})
			}
		}
		total += int64(x1-x0) * intervalUnionLength(ys)
	}
	return total
}

func dedupSorted(v []Coord) []Coord {
	sortCoords(v)
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func sortCoords(v []Coord) {
	// Insertion sort is fine for small inputs; fall back to a simple
	// quicksort for larger ones to keep TotalArea usable on big sets.
	if len(v) < 32 {
		for i := 1; i < len(v); i++ {
			for j := i; j > 0 && v[j] < v[j-1]; j-- {
				v[j], v[j-1] = v[j-1], v[j]
			}
		}
		return
	}
	quickCoords(v)
}

func quickCoords(v []Coord) {
	for len(v) > 16 {
		p := v[len(v)/2]
		i, j := 0, len(v)-1
		for i <= j {
			for v[i] < p {
				i++
			}
			for v[j] > p {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		if j > len(v)-i {
			quickCoords(v[i:])
			v = v[:j+1]
		} else {
			quickCoords(v[:j+1])
			v = v[i:]
		}
	}
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func intervalUnionLength(iv [][2]Coord) int64 {
	if len(iv) == 0 {
		return 0
	}
	// Sort by start.
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j][0] < iv[j-1][0]; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	var total int64
	curLo, curHi := iv[0][0], iv[0][1]
	for _, p := range iv[1:] {
		if p[0] > curHi {
			total += int64(curHi - curLo)
			curLo, curHi = p[0], p[1]
		} else if p[1] > curHi {
			curHi = p[1]
		}
	}
	total += int64(curHi - curLo)
	return total
}
