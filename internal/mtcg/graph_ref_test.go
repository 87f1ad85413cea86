package mtcg

import (
	"math/rand"
	"slices"
	"testing"

	"hotspot/internal/geom"
)

// allPairsGraph is the adjacency NewGraph built before it looked
// neighbours up by their starting coordinate: every ordered pair of tiles
// tested, with the reverse adjacency found by rescanning every list
// (incomingRef).
func allPairsGraph(t Tiling) (right, up, left, down [][]int) {
	right = make([][]int, len(t.Tiles))
	up = make([][]int, len(t.Tiles))
	for i, a := range t.Tiles {
		for j, b := range t.Tiles {
			if i == j {
				continue
			}
			if a.R.X1 == b.R.X0 && a.R.Y0 < b.R.Y1 && b.R.Y0 < a.R.Y1 {
				right[i] = append(right[i], j)
			}
			if a.R.Y1 == b.R.Y0 && a.R.X0 < b.R.X1 && b.R.X0 < a.R.X1 {
				up[i] = append(up[i], j)
			}
		}
	}
	left = make([][]int, len(t.Tiles))
	down = make([][]int, len(t.Tiles))
	for i := range t.Tiles {
		left[i] = incomingRef(right, i)
		down[i] = incomingRef(up, i)
	}
	return right, up, left, down
}

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

// TestNewGraphMatchesAllPairs compares NewGraph's four adjacencies, list
// for list and in order, with the all-pairs reference on random patterns
// of overlapping, abutting and window-clipped rectangles in square and
// non-square windows, both tiling directions.
func TestNewGraphMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	windows := []geom.Rect{geom.R(0, 0, 100, 100), geom.R(0, 0, 100, 60), geom.R(-20, 10, 20, 110)}
	for iter := 0; iter < 2000; iter++ {
		w := windows[iter%len(windows)]
		var rects []geom.Rect
		for i := 0; i < rng.Intn(14); i++ {
			x := geom.Coord(rng.Intn(14)*10 - 30)
			y := geom.Coord(rng.Intn(14)*10 - 20)
			rects = append(rects, geom.R(x, y, x+geom.Coord(1+rng.Intn(5))*10, y+geom.Coord(1+rng.Intn(5))*10))
		}
		for _, horizontal := range []bool{true, false} {
			tl := Build(rects, w, horizontal)
			g := NewGraph(tl)
			right, up, left, down := allPairsGraph(tl)
			eq := func(a, b [][]int) bool {
				return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
			}
			if !eq(g.Right, right) || !eq(g.Up, up) || !eq(g.Left, left) || !eq(g.Down, down) {
				t.Fatalf("rects %v window %v horizontal %v:\nright %v / %v\nup %v / %v\nleft %v / %v\ndown %v / %v",
					rects, w, horizontal, g.Right, right, g.Up, up, g.Left, left, g.Down, down)
			}
		}
	}
}
