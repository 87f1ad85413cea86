package core

import (
	"slices"
	"sort"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// RemoveRedundant implements redundant clip removal (§III-F, Fig. 12):
// reported cores are merged into regions by core overlap, dense regions are
// reframed onto an l_s pitch, covered cores are discarded, off-centre clips
// are shifted to their polygon centre of gravity, and the merge/reframe
// pass runs once more.
func RemoveRedundant(cores []geom.Rect, l *layout.Layout, cfg Config) []geom.Rect {
	if len(cores) == 0 {
		return cores
	}
	cores = mergeAndReframe(cores, cfg)
	cores = discardCovered(cores, l, cfg)
	cores = shiftToGravity(cores, l, cfg)
	cores = mergeAndReframe(cores, cfg)
	sortCores(cores)
	return cores
}

func sortCores(cores []geom.Rect) {
	sort.Slice(cores, func(i, j int) bool {
		if cores[i].Y0 != cores[j].Y0 {
			return cores[i].Y0 < cores[j].Y0
		}
		return cores[i].X0 < cores[j].X0
	})
}

// mergeAndReframe groups cores into merging regions (union-find on core
// overlap >= MergeMinOverlap of a core area) and reframes regions holding
// more than ReframeThreshold cores onto a ReframeSep-pitch grid covering
// the region's bounding box (see reframe), guaranteeing any actual core
// overlapping the region still overlaps a reframed core (l_s < l_c).
func mergeAndReframe(cores []geom.Rect, cfg Config) []geom.Rect {
	n := len(cores)
	if n == 0 {
		return cores
	}
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
	union := func(a, b int) { parent[find(a)] = find(b) }

	minOverlap := cfg.MergeMinOverlap
	if minOverlap <= 0 {
		minOverlap = 0.2
	}
	// Only overlapping pairs can merge, so each core takes its partners
	// from the grid instead of testing every pair. Visiting them in
	// ascending index order, j > i, makes the same union calls in the same
	// order as the all-pairs loop: the roots, and so the output, are the
	// same.
	grid := layout.NewGrid(cores)
	var near []int
	for i := 0; i < n; i++ {
		near = overlapping(grid, cores[i], near)
		for _, j := range near {
			if j <= i {
				continue
			}
			ov := cores[i].OverlapArea(cores[j])
			if ov <= 0 {
				continue
			}
			limit := float64(minC64(cores[i].Area(), cores[j].Area())) * minOverlap
			if float64(ov) >= limit {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	// Deterministic group order.
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)

	threshold := cfg.ReframeThreshold
	if threshold <= 0 {
		threshold = 4
	}
	sep := cfg.ReframeSep
	if sep <= 0 {
		sep = 1150
	}
	side := cfg.Spec.CoreSide

	var out []geom.Rect
	for _, r := range roots {
		members := groups[r]
		if len(members) <= threshold {
			for _, m := range members {
				out = append(out, cores[m])
			}
			continue
		}
		out = reframe(out, cores, members, sep, side)
	}
	return dedupCores(out)
}

// reframeMaxRatio bounds a reframing grid by its group: a grid of more
// than reframeMaxRatio cores per member keeps only the cores that overlap
// a member. A sparse group, such as a diagonal chain of cores, would
// otherwise tile its bounding box, whose area grows with the square of
// the member count. The benchmark layouts' grids stay under 2.4 cores per
// member, so their reports keep every grid core.
const reframeMaxRatio = 8

// reframe appends the reframing of one merge group to out: cores of side
// `side` at pitch sep tiling the group's bounding box row-major, the last
// row and column flush with its high edges. When that grid holds more
// than reframeMaxRatio cores per member, only the grid cores overlapping
// a member are appended, in the same row-major order. Every point of a
// member still lies in a grid core, and that core overlaps the member, so
// §III-F's coverage guarantee holds. Either way the work grows with the
// grid's rows and columns and the cores appended, not with its area.
func reframe(out, cores []geom.Rect, members []int, sep, side geom.Coord) []geom.Rect {
	bb := geom.Rect{}
	for _, m := range members {
		bb = bb.Union(cores[m])
	}
	xs, ys := gridSteps(bb.X0, bb.X1, sep, side), gridSteps(bb.Y0, bb.Y1, sep, side)
	if int64(len(xs))*int64(len(ys)) <= reframeMaxRatio*int64(len(members)) {
		for _, y := range ys {
			for _, x := range xs {
				out = append(out, geom.Rect{X0: x, Y0: y, X1: x + side, Y1: y + side})
			}
		}
		return out
	}
	// The grid cores overlapping member m are those whose x step lies in
	// (m.X0-side, m.X1) and whose y step lies in (m.Y0-side, m.Y1): two
	// binary searches per axis, then every pair, keyed row-major.
	var keep []int64
	for _, m := range members {
		c := cores[m]
		x0, x1 := stepsOverlapping(xs, c.X0, c.X1, side)
		y0, y1 := stepsOverlapping(ys, c.Y0, c.Y1, side)
		for j := y0; j < y1; j++ {
			for i := x0; i < x1; i++ {
				keep = append(keep, int64(j)*int64(len(xs))+int64(i))
			}
		}
	}
	slices.Sort(keep)
	for _, k := range slices.Compact(keep) {
		x, y := xs[k%int64(len(xs))], ys[k/int64(len(xs))]
		out = append(out, geom.Rect{X0: x, Y0: y, X1: x + side, Y1: y + side})
	}
	return out
}

// gridSteps returns the low edges of the reframing cores along one axis
// of [lo, hi): lo, lo+sep, ... while a core fits, then hi-side.
func gridSteps(lo, hi, sep, side geom.Coord) []geom.Coord {
	var steps []geom.Coord
	for v := lo; ; v += sep {
		if v+side > hi {
			v = hi - side
		}
		steps = append(steps, v)
		if v == hi-side {
			return steps
		}
	}
}

// stepsOverlapping returns the index range [i, j) of the ascending steps
// whose core [step, step+side) overlaps [lo, hi).
func stepsOverlapping(steps []geom.Coord, lo, hi, side geom.Coord) (int, int) {
	i := sort.Search(len(steps), func(k int) bool { return steps[k]+side > lo })
	j := sort.Search(len(steps), func(k int) bool { return steps[k] >= hi })
	return i, max(i, j)
}

func dedupCores(cores []geom.Rect) []geom.Rect {
	seen := make(map[geom.Rect]bool, len(cores))
	out := cores[:0]
	for _, c := range cores {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// discardCovered drops a core when (1) all layout geometry within it is
// covered by other reported cores and (2) each of its corners overlaps
// another reported core (Fig. 12(d)).
func discardCovered(cores []geom.Rect, l *layout.Layout, cfg Config) []geom.Rect {
	if len(cores) < 2 {
		return cores
	}
	alive := make([]bool, len(cores))
	for i := range alive {
		alive[i] = true
	}
	// The grid yields the cores overlapping c; in ascending index order
	// and filtered by alive, they are the all-pairs loop's others, seen
	// with the same alive flags.
	grid := layout.NewGrid(cores)
	var near []int
	others := make([]geom.Rect, 0, 8)
	for i, c := range cores {
		near = overlapping(grid, c, near)
		others = others[:0]
		for _, j := range near {
			if j != i && alive[j] {
				others = append(others, cores[j])
			}
		}
		if len(others) == 0 {
			continue
		}
		// Condition 2: each corner inside some other core.
		corners := [4]geom.Point{
			{X: c.X0, Y: c.Y0}, {X: c.X1 - 1, Y: c.Y0},
			{X: c.X0, Y: c.Y1 - 1}, {X: c.X1 - 1, Y: c.Y1 - 1},
		}
		cornersOK := true
		for _, p := range corners {
			inSome := false
			for _, o := range others {
				if o.Contains(p) {
					inSome = true
					break
				}
			}
			if !inSome {
				cornersOK = false
				break
			}
		}
		if !cornersOK {
			continue
		}
		// Condition 1: geometry in c covered by the union of others.
		geo := l.QueryClipped(cfg.Layer, c, nil)
		covered := true
		for _, g := range geo {
			var parts []geom.Rect
			for _, o := range others {
				ov := g.Intersect(o)
				if !ov.Empty() {
					parts = append(parts, ov)
				}
			}
			if geom.TotalArea(parts) != g.Area() {
				covered = false
				break
			}
		}
		if covered {
			alive[i] = false
		}
	}
	out := cores[:0]
	for i, c := range cores {
		if alive[i] {
			out = append(out, c)
		}
	}
	return out
}

// overlapping returns the indices of the cores in grid that overlap c, in
// ascending order, reusing dst's storage.
func overlapping(grid *layout.Grid, c geom.Rect, dst []int) []int {
	dst = grid.Indices(c, dst[:0])
	slices.Sort(dst)
	return dst
}

// shiftToGravity recentres clips whose geometry sits far from the clip
// boundary: when the distance between the clip boundary and the geometry
// bounding box exceeds the extraction limit, the core is shifted to the
// polygon centre of gravity along x or y (§III-F step 3).
func shiftToGravity(cores []geom.Rect, l *layout.Layout, cfg Config) []geom.Rect {
	limit := cfg.Requirements.MaxBorderDist
	if limit <= 0 {
		return cores
	}
	ambit := cfg.Spec.Ambit()
	out := make([]geom.Rect, 0, len(cores))
	for _, c := range cores {
		window := c.Expand(ambit)
		geo := l.QueryClipped(cfg.Layer, window, nil)
		if len(geo) == 0 {
			out = append(out, c)
			continue
		}
		bb := geom.BoundingBox(geo)
		// Centre of gravity (area-weighted).
		var ax, ay, aw float64
		for _, g := range geo {
			w := float64(g.Area())
			ctr := g.Center()
			ax += w * float64(ctr.X)
			ay += w * float64(ctr.Y)
			aw += w
		}
		if aw == 0 {
			out = append(out, c)
			continue
		}
		gx := geom.Coord(ax / aw)
		gy := geom.Coord(ay / aw)
		shifted := c
		if bb.X0-window.X0 > limit || window.X1-bb.X1 > limit {
			shifted = shifted.Translate(gx-c.Center().X, 0)
		}
		if bb.Y0-window.Y0 > limit || window.Y1-bb.Y1 > limit {
			shifted = shifted.Translate(0, gy-c.Center().Y)
		}
		out = append(out, shifted)
	}
	return out
}

func minC64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
