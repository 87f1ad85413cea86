// Package features implements critical feature extraction (§III-C): the
// four topological feature types — internal, external, diagonal, segment —
// read off the MTCG tilings and recorded as rule rectangles relative to the
// pattern window, plus the five nontopological features, and the assembly
// of fixed-length per-cluster feature vectors for SVM training.
package features

import (
	"sort"

	"hotspot/internal/geom"
	"hotspot/internal/mtcg"
)

// Kind classifies a topological critical feature.
type Kind uint8

// Feature kinds (Fig. 7).
const (
	// Internal: the width and height of a block tile (Fig. 7(a)).
	Internal Kind = iota
	// External: the distance between two adjacent block tiles, i.e. the
	// dimensions of the space tile between them (Fig. 7(b)).
	External
	// Diagonal: the diagonal relation between two convex corners of block
	// (or space) tiles (Fig. 7(c)).
	Diagonal
	// Segment: a space tile with two or three edges touching the window
	// boundary (Fig. 7(d)).
	Segment
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Internal:
		return "internal"
	case External:
		return "external"
	case Diagonal:
		return "diagonal"
	default:
		return "segment"
	}
}

// RuleRect records one extracted topological feature as a rule rectangle:
// a width, a height, and the relative distance (DX, DY) from the pattern
// window's bottom-left reference point to the rectangle's bottom-left
// corner (§III-C, Fig. 8).
type RuleRect struct {
	Kind Kind
	// W, H are the rule rectangle dimensions.
	W, H geom.Coord
	// DX, DY locate the rectangle relative to the window reference point.
	DX, DY geom.Coord
	// Boundary marks features touching the window boundary (the special
	// mark of §III-C).
	Boundary bool
}

// Extract computes the topological critical features of the geometry within
// window, in the window's own frame. Callers wanting orientation-stable
// features canonicalize the pattern first (see Extractor).
func Extract(rects []geom.Rect, window geom.Rect) []RuleRect {
	return extractRules(buildGraphs(rects, window))
}

// buildGraphs builds the horizontal and vertical MTCG tilings of the
// geometry within window and their constraint graphs: everything the rules
// and the nontopological distances read.
func buildGraphs(rects []geom.Rect, window geom.Rect) (gh, gv *mtcg.Graph) {
	return mtcg.NewGraph(mtcg.Build(rects, window, true)), mtcg.NewGraph(mtcg.Build(rects, window, false))
}

// extractRules reads the rule rectangles off a pattern's horizontal and
// vertical graphs, in the frame of their tilings' window.
func extractRules(gh, gv *mtcg.Graph) []RuleRect {
	h, v, window := gh.T, gv.T, gh.T.Window
	var out []RuleRect
	out = appendInternal(out, h, gh, window)
	out = appendInternal(out, v, gv, window)
	out = appendExternalH(out, h, gh, window)
	out = appendExternalV(out, v, gv, window)
	out = appendDiagonal(out, h, gh, window)
	out = appendSegment(out, h, window)
	out = dedupRules(out)
	sortRules(out)
	return out
}

func ruleFromRect(k Kind, r geom.Rect, window geom.Rect) RuleRect {
	boundary := r.X0 == window.X0 || r.X1 == window.X1 || r.Y0 == window.Y0 || r.Y1 == window.Y1
	return RuleRect{
		Kind: k,
		W:    r.W(), H: r.H(),
		DX: r.X0 - window.X0, DY: r.Y0 - window.Y0,
		Boundary: boundary,
	}
}

// appendInternal extracts block tiles with at most one boundary edge whose
// neighbours along the tiling's strip direction are all space tiles.
func appendInternal(out []RuleRect, t mtcg.Tiling, g *mtcg.Graph, window geom.Rect) []RuleRect {
	for i, tile := range t.Tiles {
		if !tile.Block || t.BoundaryEdges(i) > 1 {
			continue
		}
		// In the strip direction, all incoming and outgoing neighbours must
		// be space vertices.
		fwd, back := g.Right[i], g.Left[i]
		if !t.Horizontal {
			fwd, back = g.Up[i], g.Down[i]
		}
		if !hasBlock(t, fwd) && !hasBlock(t, back) {
			out = append(out, ruleFromRect(Internal, tile.R, window))
		}
	}
	return out
}

// appendExternalH extracts space tiles lying horizontally between exactly
// two block tiles.
func appendExternalH(out []RuleRect, t mtcg.Tiling, g *mtcg.Graph, window geom.Rect) []RuleRect {
	for i, tile := range t.Tiles {
		if tile.Block || t.BoundaryEdges(i) > 1 {
			continue
		}
		right := blocksOf(t, g.Right[i])
		left := blocksOf(t, g.Left[i])
		if len(right) == 1 && len(left) == 1 {
			out = append(out, ruleFromRect(External, tile.R, window))
		}
	}
	return out
}

// appendExternalV extracts space tiles lying vertically between exactly two
// block tiles.
func appendExternalV(out []RuleRect, t mtcg.Tiling, g *mtcg.Graph, window geom.Rect) []RuleRect {
	for i, tile := range t.Tiles {
		if tile.Block || t.BoundaryEdges(i) > 1 {
			continue
		}
		up := blocksOf(t, g.Up[i])
		down := blocksOf(t, g.Down[i])
		if len(up) == 1 && len(down) == 1 {
			out = append(out, ruleFromRect(External, tile.R, window))
		}
	}
	return out
}

func hasBlock(t mtcg.Tiling, idx []int) bool {
	for _, i := range idx {
		if t.Tiles[i].Block {
			return true
		}
	}
	return false
}

func blocksOf(t mtcg.Tiling, idx []int) []int {
	var out []int
	for _, i := range idx {
		if t.Tiles[i].Block {
			out = append(out, i)
		}
	}
	return out
}

// appendDiagonal records the corner region of each diagonal edge.
func appendDiagonal(out []RuleRect, t mtcg.Tiling, g *mtcg.Graph, window geom.Rect) []RuleRect {
	for _, e := range g.Diag {
		a, b := t.Tiles[e[0]].R, t.Tiles[e[1]].R
		var corner geom.Rect
		if b.X0 >= a.X1 {
			corner = geom.Rect{X0: a.X1, Y0: a.Y1, X1: b.X0, Y1: b.Y0}
		} else {
			corner = geom.Rect{X0: b.X1, Y0: a.Y1, X1: a.X0, Y1: b.Y0}
		}
		out = append(out, ruleFromRect(Diagonal, corner, window))
	}
	return out
}

// appendSegment extracts space tiles with two or three boundary edges.
func appendSegment(out []RuleRect, t mtcg.Tiling, window geom.Rect) []RuleRect {
	for i, tile := range t.Tiles {
		if tile.Block {
			continue
		}
		if n := t.BoundaryEdges(i); n == 2 || n == 3 {
			out = append(out, ruleFromRect(Segment, tile.R, window))
		}
	}
	return out
}

func dedupRules(rules []RuleRect) []RuleRect {
	seen := make(map[RuleRect]bool, len(rules))
	out := rules[:0]
	for _, r := range rules {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

func sortRules(rules []RuleRect) {
	sort.Slice(rules, func(i, j int) bool {
		a, b := rules[i], rules[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.DY != b.DY {
			return a.DY < b.DY
		}
		if a.DX != b.DX {
			return a.DX < b.DX
		}
		if a.W != b.W {
			return a.W < b.W
		}
		return a.H < b.H
	})
}
