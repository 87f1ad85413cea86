// Package drc implements basic design-rule checking on layouts: minimum
// width, minimum spacing, and minimum area on a layer. The hotspot problem
// exists precisely because DRC-clean layouts can still fail lithography —
// the checker is used to verify that generated benchmarks are DRC-clean at
// the drawn rules while the litho oracle still finds hotspots, and it
// gives downstream users a first-pass filter.
package drc

import (
	"fmt"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/mtcg"
)

// Rules is a minimal rule deck for one layer.
type Rules struct {
	// MinWidth is the minimum drawn feature dimension in dbu.
	MinWidth geom.Coord
	// MinSpace is the minimum facing-edge spacing in dbu.
	MinSpace geom.Coord
	// MinArea is the minimum polygon area in dbu^2 (0 disables).
	MinArea int64
}

// Kind classifies a violation.
type Kind uint8

// Violation kinds.
const (
	Width Kind = iota
	Space
	Area
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Width:
		return "width"
	case Space:
		return "space"
	default:
		return "area"
	}
}

// Violation is one design-rule violation.
type Violation struct {
	Kind Kind
	// At locates the violating feature or gap.
	At geom.Rect
	// Value is the measured dimension (width/space in dbu, area in dbu^2).
	Value int64
	// Limit is the rule value.
	Limit int64
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s %d < %d at %v", v.Kind, v.Value, v.Limit, v.At)
}

// CheckRegion runs the rule deck over one window of a layout layer.
// Geometry is merged (maximal tiles) before measuring, so rectangle
// decomposition seams are not reported as width violations.
func CheckRegion(l *layout.Layout, layer layout.Layer, window geom.Rect, rules Rules) []Violation {
	rects := l.QueryClipped(layer, window, nil)
	return CheckRects(rects, window, rules)
}

// CheckRects runs the rule deck over a rectangle set within a window.
func CheckRects(rects []geom.Rect, window geom.Rect, rules Rules) []Violation {
	var out []Violation
	for _, horizontal := range []bool{true, false} {
		t := mtcg.Build(rects, window, horizontal)
		g := mtcg.NewGraph(t)
		dim := func(r geom.Rect) geom.Coord {
			if horizontal {
				return r.W()
			}
			return r.H()
		}
		fwd, back := g.Right, g.Left
		if !horizontal {
			fwd, back = g.Up, g.Down
		}
		for i, tile := range t.Tiles {
			d := int64(dim(tile.R))
			if tile.Block {
				// Width: a block tile narrower than the rule, unless the
				// narrowness comes from the window boundary cutting it.
				if rules.MinWidth > 0 && d < int64(rules.MinWidth) && !touchesBoundaryAlong(t, i, horizontal) {
					out = append(out, Violation{Kind: Width, At: tile.R, Value: d, Limit: int64(rules.MinWidth)})
				}
				continue
			}
			// Space: a space tile between two blocks narrower than the rule.
			if rules.MinSpace > 0 && d < int64(rules.MinSpace) {
				if hasBlock(t, fwd[i]) && hasBlock(t, back[i]) {
					out = append(out, Violation{Kind: Space, At: tile.R, Value: d, Limit: int64(rules.MinSpace)})
				}
			}
		}
	}
	if rules.MinArea > 0 {
		out = append(out, checkArea(rects, window, rules)...)
	}
	return dedup(out)
}

// touchesBoundaryAlong reports whether the tile touches the window boundary
// along the measured axis (so the tile is a clipped fragment, not a real
// narrow feature).
func touchesBoundaryAlong(t mtcg.Tiling, i int, horizontal bool) bool {
	r := t.Tiles[i].R
	if horizontal {
		return r.X0 == t.Window.X0 || r.X1 == t.Window.X1
	}
	return r.Y0 == t.Window.Y0 || r.Y1 == t.Window.Y1
}

func hasBlock(t mtcg.Tiling, idx []int) bool {
	for _, i := range idx {
		if t.Tiles[i].Block {
			return true
		}
	}
	return false
}

// checkArea measures connected-component areas.
func checkArea(rects []geom.Rect, window geom.Rect, rules Rules) []Violation {
	n := len(rects)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rects[i].Touches(rects[j]) {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := map[int][]geom.Rect{}
	order := []int{}
	for i, r := range rects {
		root := find(i)
		if _, ok := groups[root]; !ok {
			order = append(order, root)
		}
		groups[root] = append(groups[root], r)
	}
	var out []Violation
	for _, root := range order {
		g := groups[root]
		// Skip components cut by the window: their true area is unknown.
		bb := geom.BoundingBox(g)
		if bb.X0 == window.X0 || bb.Y0 == window.Y0 || bb.X1 == window.X1 || bb.Y1 == window.Y1 {
			continue
		}
		if a := geom.TotalArea(g); a < rules.MinArea {
			out = append(out, Violation{Kind: Area, At: bb, Value: a, Limit: rules.MinArea})
		}
	}
	return out
}

func dedup(vs []Violation) []Violation {
	seen := make(map[Violation]bool, len(vs))
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
