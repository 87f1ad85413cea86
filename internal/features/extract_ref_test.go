package features

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"hotspot/internal/geom"
	"hotspot/internal/mtcg"
	"hotspot/internal/topo"
)

// The reference extraction below is the code ExtractAll ran before it
// shared one pair of tilings between the rules and the distances: reverse
// adjacency by rescanning every adjacency list, corners and touches from
// candidate-vertex maps tested against every rectangle, and the distances
// from a second build of both tilings.

// incomingRef lists tiles whose adjacency set contains i.
func incomingRef(adj [][]int, i int) []int {
	var out []int
	for j, set := range adj {
		for _, k := range set {
			if k == i {
				out = append(out, j)
			}
		}
	}
	return out
}

func extractRef(rects []geom.Rect, window geom.Rect) []RuleRect {
	h := mtcg.Build(rects, window, true)
	v := mtcg.Build(rects, window, false)
	gh := mtcg.NewGraph(h)
	gv := mtcg.NewGraph(v)

	var out []RuleRect
	out = appendInternalRef(out, h, gh, window)
	out = appendInternalRef(out, v, gv, window)
	out = appendExternalRef(out, h, gh.Right, window)
	out = appendExternalRef(out, v, gv.Up, window)
	out = appendDiagonal(out, h, gh, window)
	out = appendSegment(out, h, window)
	out = dedupRules(out)
	sortRules(out)
	return out
}

func appendInternalRef(out []RuleRect, t mtcg.Tiling, g *mtcg.Graph, window geom.Rect) []RuleRect {
	for i, tile := range t.Tiles {
		if !tile.Block || t.BoundaryEdges(i) > 1 {
			continue
		}
		ok := true
		var neigh []int
		if t.Horizontal {
			neigh = append(neigh, g.Right[i]...)
			neigh = append(neigh, incomingRef(g.Right, i)...)
		} else {
			neigh = append(neigh, g.Up[i]...)
			neigh = append(neigh, incomingRef(g.Up, i)...)
		}
		for _, j := range neigh {
			if t.Tiles[j].Block {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, ruleFromRect(Internal, tile.R, window))
		}
	}
	return out
}

// appendExternalRef is appendExternalH (adj = Right) and appendExternalV
// (adj = Up).
func appendExternalRef(out []RuleRect, t mtcg.Tiling, adj [][]int, window geom.Rect) []RuleRect {
	for i, tile := range t.Tiles {
		if tile.Block || t.BoundaryEdges(i) > 1 {
			continue
		}
		if len(blocksOf(t, adj[i])) == 1 && len(blocksOf(t, incomingRef(adj, i))) == 1 {
			out = append(out, ruleFromRect(External, tile.R, window))
		}
	}
	return out
}

func computeNonTopoRef(rects []geom.Rect, window geom.Rect) NonTopo {
	clipped := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			clipped = append(clipped, c)
		}
	}
	var out NonTopo
	out.Corners, out.Touches = cornersAndTouchesRef(clipped)
	out.MinInternal, out.MinExternal = minDistancesRef(clipped, window)
	if !window.Empty() {
		out.Density = float64(geom.TotalArea(clipped)) / float64(window.Area())
	}
	return out
}

func cornersAndTouchesRef(rects []geom.Rect) (corners, touches int) {
	type pt = geom.Point
	xs := make(map[geom.Coord]bool)
	ys := make(map[geom.Coord]bool)
	for _, r := range rects {
		xs[r.X0], xs[r.X1] = true, true
		ys[r.Y0], ys[r.Y1] = true, true
	}
	cand := make(map[pt]bool, len(xs)*len(ys))
	for x := range xs {
		for y := range ys {
			cand[pt{X: x, Y: y}] = true
		}
	}
	covered := func(x, y geom.Coord) bool {
		for _, r := range rects {
			if x > r.X0 && x <= r.X1 && y > r.Y0 && y <= r.Y1 {
				return true
			}
		}
		return false
	}
	for p := range cand {
		ll := covered(p.X, p.Y)
		lr := covered(p.X+1, p.Y)
		ul := covered(p.X, p.Y+1)
		ur := covered(p.X+1, p.Y+1)
		n := b2i(ll) + b2i(lr) + b2i(ul) + b2i(ur)
		switch n {
		case 1, 3:
			corners++
		case 2:
			if (ll && ur && !lr && !ul) || (lr && ul && !ll && !ur) {
				touches++
			}
		}
	}
	return corners, touches
}

func minDistancesRef(rects []geom.Rect, window geom.Rect) (internal, external geom.Coord) {
	internal = math.MaxInt32
	external = math.MaxInt32
	for _, horizontal := range []bool{true, false} {
		t := mtcg.Build(rects, window, horizontal)
		g := mtcg.NewGraph(t)
		dim := func(r geom.Rect) geom.Coord {
			if horizontal {
				return r.W()
			}
			return r.H()
		}
		adj := g.Right
		if !horizontal {
			adj = g.Up
		}
		hasBlock := func(idx []int) bool {
			for _, i := range idx {
				if t.Tiles[i].Block {
					return true
				}
			}
			return false
		}
		for i, tile := range t.Tiles {
			if tile.Block {
				if d := dim(tile.R); d < internal {
					internal = d
				}
				continue
			}
			if hasBlock(adj[i]) && hasBlock(incomingRef(adj, i)) {
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

// extractAllRef is ExtractAll on the reference extraction.
func extractAllRef(rects []geom.Rect, window geom.Rect) Extracted {
	canon, cw, _ := canonicalize(rects, window)
	return Extracted{Rules: extractRef(canon, cw), NT: computeNonTopoRef(canon, cw)}
}

// extractGeometry decodes a fuzz input into a window and rectangles. The
// first byte picks the window shape (square, wide or tall, at an offset
// origin), whether the pattern is made D8-symmetric (its first four rects
// plus their seven images each, square windows only) and whether a comb of thin bars is
// then added whose vertical slabs cross more than 63 regions. The rest is
// rectangles, four little-endian uint16 coordinates each, snapped to a
// 40-unit lattice that spills past the window edges, so overlapping,
// abutting and window-clipped rectangles are common.
func extractGeometry(data []byte) ([]geom.Rect, geom.Rect) {
	var mode byte
	if len(data) > 0 {
		mode, data = data[0], data[1:]
	}
	shapes := [...]struct{ w, h geom.Coord }{{1200, 1200}, {1200, 720}, {480, 1200}, {1200, 1200}}
	sh := shapes[mode&3]
	origin := geom.Pt(700, -2000+geom.Coord(mode&3)*900)
	var local []geom.Rect
	for i := 0; i+8 <= len(data) && len(local) < 24; i += 8 {
		c := func(k int) geom.Coord {
			return geom.Coord(binary.LittleEndian.Uint16(data[i+2*k:])%37)*40 - 120
		}
		local = append(local, geom.R(c(0), c(1), c(2), c(3)))
	}
	if mode&4 != 0 && sh.w == sh.h {
		n := min(len(local), 4)
		local = local[:n]
		for _, o := range geom.AllOrientations[1:] {
			for _, r := range local[:n] {
				local = append(local, o.ApplyToRect(r, sh.w))
			}
		}
	}
	if mode&8 != 0 {
		bars := 33 + geom.Coord(mode>>4)
		for b := geom.Coord(0); b < bars; b++ {
			local = append(local, geom.R(geom.Coord(mode>>4)*13, 10*b, sh.w/2+10*b, 10*b+5))
		}
	}
	rects := make([]geom.Rect, len(local))
	for i, r := range local {
		rects[i] = r.Translate(origin.X, origin.Y)
	}
	return rects, geom.R(origin.X, origin.Y, origin.X+sh.w, origin.Y+sh.h)
}

// FuzzExtractAll checks the one-tiling extraction against the reference
// it replaced: rules and nontopological features of ExtractAll and
// ExtractAllCanonical (whose key must also equal topo.CanonicalKey), and
// Extract, ComputeNonTopo and the corner count on the raw, unclipped
// pattern.
func FuzzExtractAll(f *testing.F) {
	rect := func(x0, y0, x1, y1 uint16) []byte {
		b := make([]byte, 8)
		for i, v := range []uint16{x0, y0, x1, y1} {
			binary.LittleEndian.PutUint16(b[2*i:], v)
		}
		return b
	}
	cat := func(mode byte, rs ...[]byte) []byte {
		out := []byte{mode}
		for _, r := range rs {
			out = append(out, r...)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(cat(0, rect(5, 6, 9, 14)))
	for shape := byte(0); shape < 3; shape++ {
		f.Add(cat(shape, rect(3, 3, 6, 20), rect(6, 3, 15, 6), rect(20, 10, 24, 30)))
	}
	// Overlapping, abutting, corner-touching and window-spilling rects.
	f.Add(cat(1, rect(0, 0, 36, 4), rect(10, 2, 14, 30), rect(14, 2, 18, 12), rect(18, 12, 22, 16), rect(30, 30, 36, 36)))
	f.Add(cat(0, rect(4, 4, 10, 10), rect(10, 10, 16, 16), rect(4, 16, 10, 22), rect(16, 4, 22, 10)))
	// Facing bars (spacings) and a comb.
	f.Add(cat(2, rect(3, 3, 5, 25), rect(7, 3, 9, 25), rect(3, 27, 9, 29)))
	f.Add(cat(4, rect(5, 6, 9, 14), rect(12, 2, 14, 20)))
	f.Add(cat(8|1<<4, rect(25, 2, 28, 33)))
	f.Add(cat(9, rect(3, 3, 6, 20)))

	f.Fuzz(func(t *testing.T, data []byte) {
		rects, window := extractGeometry(data)
		want := extractAllRef(rects, window)
		if got := ExtractAll(rects, window); !slices.Equal(got.Rules, want.Rules) || got.NT != want.NT {
			t.Fatalf("ExtractAll = %+v\nreference %+v", got, want)
		}
		got, key := ExtractAllCanonical(rects, window)
		if !slices.Equal(got.Rules, want.Rules) || got.NT != want.NT {
			t.Fatalf("ExtractAllCanonical = %+v\nreference %+v", got, want)
		}
		if wantKey := topo.CanonicalKey(rects, window); key != wantKey {
			t.Fatalf("ExtractAllCanonical key %q, CanonicalKey %q", key, wantKey)
		}
		if got, want := Extract(rects, window), extractRef(rects, window); !slices.Equal(got, want) {
			t.Fatalf("Extract = %+v\nreference %+v", got, want)
		}
		if got, want := ComputeNonTopo(rects, window), computeNonTopoRef(rects, window); got != want {
			t.Fatalf("ComputeNonTopo = %+v, reference %+v", got, want)
		}
		c, tc := cornersAndTouches(rects)
		if wc, wt := cornersAndTouchesRef(rects); c != wc || tc != wt {
			t.Fatalf("cornersAndTouches = %d, %d; reference %d, %d", c, tc, wc, wt)
		}
	})
}
