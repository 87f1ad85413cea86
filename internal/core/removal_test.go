package core

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// mergeAndReframeReference is mergeAndReframe with the all-pairs overlap
// loop it had before the grid neighbour query, and a sparse group's grid
// filtered by testing every grid core against every member.
// FuzzRemoveRedundant holds the two equal, order included.
func mergeAndReframeReference(cores []geom.Rect, cfg Config) []geom.Rect {
	n := len(cores)
	if n == 0 {
		return cores
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
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
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
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
	var roots []int
	for r := range groups {
		roots = append(roots, r)
	}
	slices.Sort(roots)

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
		bb := geom.Rect{}
		for _, m := range members {
			bb = bb.Union(cores[m])
		}
		var grid []geom.Rect
		for y := bb.Y0; ; y += sep {
			if y+side > bb.Y1 {
				y = bb.Y1 - side
			}
			for x := bb.X0; ; x += sep {
				if x+side > bb.X1 {
					x = bb.X1 - side
				}
				grid = append(grid, geom.Rect{X0: x, Y0: y, X1: x + side, Y1: y + side})
				if x == bb.X1-side {
					break
				}
			}
			if y == bb.Y1-side {
				break
			}
		}
		// A sparse group keeps the grid cores that overlap a member,
		// found by testing every member.
		if len(grid) > reframeMaxRatio*len(members) {
			kept := grid[:0]
			for _, g := range grid {
				for _, m := range members {
					if g.Overlaps(cores[m]) {
						kept = append(kept, g)
						break
					}
				}
			}
			grid = kept
		}
		out = append(out, grid...)
	}
	return dedupCores(out)
}

// discardCoveredReference is discardCovered with the all-pairs search for
// the other live cores overlapping each core.
func discardCoveredReference(cores []geom.Rect, l *layout.Layout, cfg Config) []geom.Rect {
	if len(cores) < 2 {
		return cores
	}
	alive := make([]bool, len(cores))
	for i := range alive {
		alive[i] = true
	}
	for i, c := range cores {
		others := make([]geom.Rect, 0, 8)
		for j, o := range cores {
			if j != i && alive[j] && o.Overlaps(c) {
				others = append(others, o)
			}
		}
		if len(others) == 0 {
			continue
		}
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

// disjointWindowsReference is disjointWindows deleting each absorbed
// window from the slice on the spot.
func disjointWindowsReference(cores []geom.Rect, margin geom.Coord) []geom.Rect {
	ws := make([]geom.Rect, len(cores))
	for i, c := range cores {
		ws[i] = c.Expand(margin)
	}
	for {
		merged := false
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				if ws[i].Overlaps(ws[j]) {
					ws[i] = ws[i].Union(ws[j])
					ws = append(ws[:j], ws[j+1:]...)
					merged = true
					j--
				}
			}
		}
		if !merged {
			return ws
		}
	}
}

// removeRedundantReference is RemoveRedundant over the reference passes.
func removeRedundantReference(cores []geom.Rect, l *layout.Layout, cfg Config) []geom.Rect {
	if len(cores) == 0 {
		return cores
	}
	cores = mergeAndReframeReference(cores, cfg)
	cores = discardCoveredReference(cores, l, cfg)
	cores = shiftToGravity(cores, l, cfg)
	cores = mergeAndReframeReference(cores, cfg)
	sortCores(cores)
	return cores
}

// coreRecord is the fuzz encoding of one core: little-endian uint16 x and
// y anchors, then a width and a height code. Codes 0 and 1 make that side
// zero and inverted, 2 to 9 oversized; any other code is the core side.
const coreRecord = 6

// decodeCores reads the cores of data, one coreRecord each.
func decodeCores(data []byte, side geom.Coord) []geom.Rect {
	extent := func(at geom.Coord, code byte) (geom.Coord, geom.Coord) {
		switch {
		case code == 0:
			return at, at
		case code == 1:
			return at + side, at
		case code < 10:
			return at, at + side + geom.Coord(code)*400
		}
		return at, at + side
	}
	var out []geom.Rect
	for ; len(data) >= coreRecord; data = data[coreRecord:] {
		x := geom.Coord(binary.LittleEndian.Uint16(data))
		y := geom.Coord(binary.LittleEndian.Uint16(data[2:]))
		x0, x1 := extent(x, data[4])
		y0, y1 := extent(y, data[5])
		out = append(out, geom.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1})
	}
	return out
}

// appendCore appends the record of a core anchored at (x, y) with the
// given width and height codes.
func appendCore(data []byte, x, y geom.Coord, wcode, hcode byte) []byte {
	data = binary.LittleEndian.AppendUint16(data, uint16(x))
	data = binary.LittleEndian.AppendUint16(data, uint16(y))
	return append(data, wcode, hcode)
}

// randCoreRecords encodes n cores of the given side around a few cluster
// centres: exact duplicates, neighbours abutting on an edge, near copies
// anchored on and off a 50-dbu grid, zero-width, inverted and oversized
// cores, and the odd core far from every cluster. Cores of one cluster
// overlap in every proportion, so merge groups chain, reframe and straddle
// grid cells.
func randCoreRecords(rng *rand.Rand, n int, side geom.Coord) []byte {
	span := 2*side + geom.Coord(rng.Intn(12*int(side)))
	centres := make([]geom.Point, 1+rng.Intn(6))
	for i := range centres {
		centres[i] = geom.Pt(2*side+geom.Coord(rng.Intn(int(span))), 2*side+geom.Coord(rng.Intn(int(span))))
	}
	var data []byte
	for i := 0; i < n; i++ {
		at := centres[rng.Intn(len(centres))]
		at.X += geom.Coord(rng.Intn(4*int(side))) - 2*side
		at.Y += geom.Coord(rng.Intn(4*int(side))) - 2*side
		if rng.Intn(4) == 0 {
			at.X -= at.X % 50
			at.Y -= at.Y % 50
		}
		wcode, hcode := byte(255), byte(255)
		switch k := rng.Intn(16); {
		case k < 3 && i > 0: // duplicate
			j := rng.Intn(i) * coreRecord
			data = append(data, data[j:j+coreRecord]...)
			continue
		case k < 6 && i > 0: // full-size core abutting an earlier one
			j := rng.Intn(i) * coreRecord
			at.X = geom.Coord(binary.LittleEndian.Uint16(data[j:])) + []geom.Coord{side, -side, 0, 0}[k%4]
			at.Y = geom.Coord(binary.LittleEndian.Uint16(data[j+2:])) + []geom.Coord{0, 0, side, -side}[k%4]
		case k == 6:
			wcode = 0
		case k == 7:
			wcode = 1
		case k == 8:
			wcode, hcode = byte(2+rng.Intn(8)), byte(2+rng.Intn(8))
		case k == 9: // beyond every cluster, inside the 16-bit anchor range
			at.X += 2 * span
		}
		data = appendCore(data, at.X, at.Y, wcode, hcode)
	}
	return data
}

// randLayout returns a layout of random wires on layer over the bounds of
// cores, dense enough that some cores hold geometry and some none.
func randLayout(rng *rand.Rand, layer layout.Layer, cores []geom.Rect) *layout.Layout {
	l := layout.New("removal-fuzz")
	bb := geom.BoundingBox(cores)
	if bb.Empty() {
		return l
	}
	for i := rng.Intn(200); i > 0; i-- {
		x := bb.X0 + geom.Coord(rng.Int63n(int64(bb.W())))
		y := bb.Y0 + geom.Coord(rng.Int63n(int64(bb.H())))
		w := geom.Coord(20 + rng.Intn(600))
		h := geom.Coord(20 + rng.Intn(2400))
		if rng.Intn(2) == 0 {
			w, h = h, w
		}
		l.AddRect(layer, geom.R(x, y, x+w, y+h))
	}
	return l
}

// FuzzRemoveRedundant holds the grid-query mergeAndReframe, discardCovered
// and the compacting disjointWindows to their all-pairs references, and
// RemoveRedundant to the reference pipeline, by slice equality, order
// included, on core sets decoded from data (see decodeCores), a random
// layout over them, and four merge settings picked by mode.
//
// The last seed is built so that order matters: core 0 straddles a grid
// cell boundary and overlaps core 3 in the left cell and core 1 in the
// right one, with core 2 isolated. A grid path that visits partners in
// cell order (3 before 1), or merges j < i, roots the group {0, 1, 3} at
// 1 or 0 instead of 3 and reports it before core 2 instead of after.
func FuzzRemoveRedundant(f *testing.F) {
	side := DefaultConfig().Spec.CoreSide
	for seed, n := range []int{40, 300, 7, 120, 600, 60} {
		rng := rand.New(rand.NewSource(int64(seed)))
		f.Add(randCoreRecords(rng, n, side), int64(seed), uint8(seed))
	}
	var straddle []byte
	for _, at := range []geom.Point{{X: 4000}, {X: 4900}, {Y: 10000}, {X: 3500}} {
		straddle = appendCore(straddle, at.X, at.Y, 255, 255)
	}
	f.Add(straddle, int64(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, layoutSeed int64, mode uint8) {
		cfg := DefaultConfig()
		cores := decodeCores(data, cfg.Spec.CoreSide)
		if len(cores) > 1000 {
			cores = cores[:1000] // the references are quadratic
		}
		l := randLayout(rand.New(rand.NewSource(layoutSeed)), cfg.Layer, cores)
		switch mode % 4 {
		case 1:
			cfg.MergeMinOverlap = 0.05
		case 2:
			cfg.ReframeThreshold = 1
		case 3:
			cfg.ReframeThreshold = 1 << 20 // never reframe
		}

		got := mergeAndReframe(slices.Clone(cores), cfg)
		want := mergeAndReframeReference(slices.Clone(cores), cfg)
		if !slices.Equal(got, want) {
			t.Fatalf("mergeAndReframe of %d cores:\n got %v\nwant %v", len(cores), got, want)
		}
		// Reframing amplifies by a fixed multiple at most: a full grid
		// holds reframeMaxRatio cores per member, and a filtered one at
		// most the 7 x 7 grid cores that can overlap one member, the
		// widest decodeCores makes being side+3600 at pitch 1150.
		if len(got) > 64*len(cores) {
			t.Fatalf("mergeAndReframe turned %d cores into %d", len(cores), len(got))
		}
		got = discardCovered(slices.Clone(cores), l, cfg)
		want = discardCoveredReference(slices.Clone(cores), l, cfg)
		if !slices.Equal(got, want) {
			t.Fatalf("discardCovered of %d cores:\n got %v\nwant %v", len(cores), got, want)
		}
		got = disjointWindows(cores, cfg.Spec.Ambit())
		want = disjointWindowsReference(cores, cfg.Spec.Ambit())
		if !slices.Equal(got, want) {
			t.Fatalf("disjointWindows of %d cores:\n got %v\nwant %v", len(cores), got, want)
		}
		got = RemoveRedundant(slices.Clone(cores), l, cfg)
		want = removeRedundantReference(slices.Clone(cores), l, cfg)
		if !slices.Equal(got, want) {
			t.Fatalf("RemoveRedundant of %d cores:\n got %v\nwant %v", len(cores), got, want)
		}
	})
}

// TestRemoveRedundantScale removes about 120k generated cores in one call,
// clustered and isolated over a layout of wires, within a deadline far
// above the grid path's time and far below the all-pairs loops' (the
// all-pairs merge alone takes about a minute at this size).
func TestRemoveRedundantScale(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-core removal")
	}
	cfg := DefaultConfig()
	side := cfg.Spec.CoreSide
	const pitch, sites = 6000, 200 // a 200 x 200 lattice of sites
	rng := rand.New(rand.NewSource(11))
	l := layout.New("removal-scale")
	var cores []geom.Rect
	for sy := 0; sy < sites; sy++ {
		for sx := 0; sx < sites; sx++ {
			x0, y0 := geom.Coord(sx*pitch), geom.Coord(sy*pitch)
			l.AddRect(cfg.Layer, geom.R(x0+200, y0+300, x0+2400, y0+500))
			l.AddRect(cfg.Layer, geom.R(x0+900, y0+100, x0+1100, y0+2200))
			// Two sites in five are isolated cores; the rest hold a
			// pile of overlapping cores that merges and reframes.
			k := 1
			if rng.Intn(5) >= 2 {
				k = 2 + rng.Intn(6)
			}
			for i := 0; i < k; i++ {
				x := x0 + geom.Coord(rng.Intn(800))
				y := y0 + geom.Coord(rng.Intn(800))
				cores = append(cores, geom.R(x, y, x+side, y+side))
			}
		}
	}
	if len(cores) < 100_000 {
		t.Fatalf("generated %d cores, want at least 100k", len(cores))
	}

	done := make(chan []geom.Rect, 1)
	start := time.Now()
	go func() { done <- RemoveRedundant(slices.Clone(cores), l, cfg) }()
	select {
	case out := <-done:
		t.Logf("%d cores -> %d in %v", len(cores), len(out), time.Since(start))
		if len(out) == 0 || len(out) >= len(cores) {
			t.Fatalf("removal kept %d of %d cores", len(out), len(cores))
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("removing %d cores took more than 30s", len(cores))
	}
}

// TestRemoveRedundantStaircase: 1,000 cores in a diagonal chain, each 500
// dbu right of and above the last, merge into one group whose bounding
// box a full reframing grid would tile with 190,096 cores. Keeping only
// the grid cores that overlap a member bounds the output and the memory
// removal allocates by the member count.
func TestRemoveRedundantStaircase(t *testing.T) {
	cfg := DefaultConfig()
	side := cfg.Spec.CoreSide
	l := layout.New("staircase")
	var cores []geom.Rect
	for i := 0; i < 1000; i++ {
		x, y := geom.Coord(500*i), geom.Coord(500*i)
		cores = append(cores, geom.R(x, y, x+side, y+side))
		l.AddRect(cfg.Layer, geom.R(x+400, y+500, x+800, y+700))
	}
	if n := len(mergeAndReframeReference(slices.Clone(cores), Config{Spec: cfg.Spec, ReframeThreshold: 1 << 30})); n != len(cores) {
		t.Fatalf("staircase setup: %d cores without reframing, want %d", n, len(cores))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := RemoveRedundant(slices.Clone(cores), l, cfg)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d cores -> %d, %d bytes allocated", len(cores), len(out), alloc)
	if len(out) == 0 || len(out) > 3*len(cores) {
		t.Fatalf("removal turned %d staircase cores into %d, want at most %d", len(cores), len(out), 3*len(cores))
	}
	if alloc > 8<<20 {
		t.Fatalf("removal of %d staircase cores allocated %d bytes, budget %d", len(cores), alloc, 8<<20)
	}
}
