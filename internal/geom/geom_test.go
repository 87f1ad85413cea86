package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectNormalization(t *testing.T) {
	r := R(10, 20, 0, 5)
	if r != (Rect{0, 5, 10, 20}) {
		t.Fatalf("R did not normalize: %v", r)
	}
	if r.W() != 10 || r.H() != 15 {
		t.Fatalf("W/H wrong: %d %d", r.W(), r.H())
	}
	if r.Area() != 150 {
		t.Fatalf("Area wrong: %d", r.Area())
	}
}

func TestRectEmpty(t *testing.T) {
	if !(Rect{}).Empty() {
		t.Fatal("zero Rect should be empty")
	}
	if !(Rect{5, 5, 5, 9}).Empty() {
		t.Fatal("zero-width Rect should be empty")
	}
	if (Rect{0, 0, 1, 1}).Empty() {
		t.Fatal("unit Rect should not be empty")
	}
}

func TestRectOverlapAndIntersect(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	c := R(10, 0, 20, 10) // abuts a
	if !a.Overlaps(b) {
		t.Fatal("a should overlap b")
	}
	if a.Overlaps(c) {
		t.Fatal("abutting rects must not count as overlapping")
	}
	if !a.Touches(c) {
		t.Fatal("abutting rects must touch")
	}
	got := a.Intersect(b)
	if got != (Rect{5, 5, 10, 10}) {
		t.Fatalf("Intersect wrong: %v", got)
	}
	if a.Intersect(c).Area() != 0 {
		t.Fatal("disjoint intersect area must be 0")
	}
	if a.OverlapArea(b) != 25 {
		t.Fatalf("OverlapArea wrong: %d", a.OverlapArea(b))
	}
}

func TestRectUnionContains(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(10, 10, 12, 12)
	u := a.Union(b)
	if !u.ContainsRect(a) || !u.ContainsRect(b) {
		t.Fatalf("union %v must contain both inputs", u)
	}
	if (Rect{}).Union(a) != a || a.Union(Rect{}) != a {
		t.Fatal("union with empty must be identity")
	}
	if !a.Contains(Pt(0, 0)) || a.Contains(Pt(4, 4)) {
		t.Fatal("Contains must be half-open")
	}
}

func TestRectExpandTranslate(t *testing.T) {
	a := R(2, 2, 6, 6)
	if a.Expand(2) != (Rect{0, 0, 8, 8}) {
		t.Fatalf("Expand wrong: %v", a.Expand(2))
	}
	if a.Translate(-2, 3) != (Rect{0, 5, 4, 9}) {
		t.Fatalf("Translate wrong: %v", a.Translate(-2, 3))
	}
	if a.Center() != Pt(4, 4) {
		t.Fatalf("Center wrong: %v", a.Center())
	}
}

func TestTotalAreaDisjointAndOverlapping(t *testing.T) {
	cases := []struct {
		rects []Rect
		want  int64
	}{
		{nil, 0},
		{[]Rect{R(0, 0, 10, 10)}, 100},
		{[]Rect{R(0, 0, 10, 10), R(20, 0, 30, 10)}, 200},
		{[]Rect{R(0, 0, 10, 10), R(5, 5, 15, 15)}, 175},
		{[]Rect{R(0, 0, 10, 10), R(0, 0, 10, 10)}, 100},
		{[]Rect{R(0, 0, 4, 4), R(4, 0, 8, 4)}, 32},
	}
	for i, c := range cases {
		if got := TotalArea(c.rects); got != c.want {
			t.Errorf("case %d: TotalArea = %d, want %d", i, got, c.want)
		}
	}
}

func TestTotalAreaRandomAgainstGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		rects := make([]Rect, n)
		for i := range rects {
			x := Coord(rng.Intn(20))
			y := Coord(rng.Intn(20))
			rects[i] = R(x, y, x+Coord(1+rng.Intn(10)), y+Coord(1+rng.Intn(10)))
		}
		// Brute force on a 32x32 grid.
		var brute int64
		for x := Coord(0); x < 32; x++ {
			for y := Coord(0); y < 32; y++ {
				for _, r := range rects {
					if r.Contains(Pt(x, y)) {
						brute++
						break
					}
				}
			}
		}
		if got := TotalArea(rects); got != brute {
			t.Fatalf("trial %d: TotalArea=%d brute=%d rects=%v", trial, got, brute, rects)
		}
	}
}

// rectPolygon returns the four-vertex polygon covering r, counterclockwise
// from the lower-left corner.
func rectPolygon(r Rect) Polygon {
	return Polygon{Pts: []Point{
		{r.X0, r.Y0}, {r.X1, r.Y0}, {r.X1, r.Y1}, {r.X0, r.Y1},
	}}
}

func TestPolygonValidate(t *testing.T) {
	bad := Polygon{Pts: []Point{{0, 0}, {5, 5}, {5, 0}, {0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("diagonal polygon must fail validation")
	}
	short := Polygon{Pts: []Point{{0, 0}, {1, 0}, {1, 1}}}
	if err := short.Validate(); err == nil {
		t.Fatal("3-vertex polygon must fail validation")
	}
	ok := rectPolygon(R(0, 0, 5, 5))
	if err := ok.Validate(); err != nil {
		t.Fatalf("rect polygon must validate: %v", err)
	}
}

func TestPolygonAreaAndBounds(t *testing.T) {
	// L-shape: 10x10 square minus 5x5 upper-right notch.
	l := Polygon{Pts: []Point{
		{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10},
	}}
	if l.Area() != 75 {
		t.Fatalf("L area = %d, want 75", l.Area())
	}
	if l.Bounds() != (Rect{0, 0, 10, 10}) {
		t.Fatalf("bounds wrong: %v", l.Bounds())
	}
}

func TestPolygonRectsLShape(t *testing.T) {
	l := Polygon{Pts: []Point{
		{0, 0}, {10, 0}, {10, 5}, {5, 5}, {5, 10}, {0, 10},
	}}
	rects, err := l.Rects()
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, l, rects)
}

func TestPolygonRectsClockwise(t *testing.T) {
	// Same L-shape with reversed (clockwise) winding.
	l := Polygon{Pts: []Point{
		{0, 10}, {5, 10}, {5, 5}, {10, 5}, {10, 0}, {0, 0},
	}}
	rects, err := l.Rects()
	if err != nil {
		t.Fatal(err)
	}
	checkDecomposition(t, l, rects)
}

func TestPolygonRectsShapes(t *testing.T) {
	shapes := map[string]Polygon{
		"rect": rectPolygon(R(2, 3, 9, 7)),
		"U": {Pts: []Point{
			{0, 0}, {12, 0}, {12, 10}, {8, 10}, {8, 4}, {4, 4}, {4, 10}, {0, 10},
		}},
		"T": {Pts: []Point{
			{4, 0}, {8, 0}, {8, 6}, {12, 6}, {12, 10}, {0, 10}, {0, 6}, {4, 6},
		}},
		"plus": {Pts: []Point{
			{4, 0}, {8, 0}, {8, 4}, {12, 4}, {12, 8}, {8, 8}, {8, 12}, {4, 12}, {4, 8}, {0, 8}, {0, 4}, {4, 4},
		}},
		"Z": {Pts: []Point{
			{0, 0}, {8, 0}, {8, 4}, {12, 4}, {12, 8}, {4, 8}, {4, 4}, {0, 4},
		}},
	}
	for name, poly := range shapes {
		rects, err := poly.Rects()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkDecomposition(t, poly, rects)
	}
}

// checkDecomposition verifies area equality, disjointness, and containment.
func checkDecomposition(t *testing.T, p Polygon, rects []Rect) {
	t.Helper()
	var sum int64
	for i, r := range rects {
		if r.Empty() {
			t.Fatalf("rect %d empty: %v", i, r)
		}
		sum += r.Area()
		for j := i + 1; j < len(rects); j++ {
			if r.Overlaps(rects[j]) {
				t.Fatalf("rects %d and %d overlap: %v %v", i, j, r, rects[j])
			}
		}
		if !p.Bounds().ContainsRect(r) {
			t.Fatalf("rect %v escapes bounds %v", r, p.Bounds())
		}
	}
	if sum != p.Area() {
		t.Fatalf("decomposition area %d != polygon area %d (rects %v)", sum, p.Area(), rects)
	}
}

// inverse returns the orientation that undoes o: mirror-rotations are
// involutions in this parameterization, rotations invert mod 4.
func inverse(o Orientation) Orientation {
	if o >= MirRot0 {
		return o
	}
	return Orientation((4 - int(o)) % 4)
}

func TestOrientationPointRoundTrip(t *testing.T) {
	const s = 100
	for _, o := range AllOrientations {
		inv := inverse(o)
		for _, p := range []Point{{0, 0}, {10, 20}, {99, 1}, {50, 50}} {
			q := o.ApplyToPoint(p, s)
			back := inv.ApplyToPoint(q, s)
			if back != p {
				t.Fatalf("%v: %v -> %v -> %v (inverse %v)", o, p, q, back, inv)
			}
		}
	}
}

func TestOrientationRectPreservesArea(t *testing.T) {
	const s = 100
	r := R(10, 20, 40, 90)
	for _, o := range AllOrientations {
		m := o.ApplyToRect(r, s)
		if m.Area() != r.Area() {
			t.Fatalf("%v changed area: %v -> %v", o, r, m)
		}
		if m.X0 < 0 || m.Y0 < 0 || m.X1 > s || m.Y1 > s {
			t.Fatalf("%v escaped window: %v", o, m)
		}
	}
}

func TestQuickPolygonRectDecompositionArea(t *testing.T) {
	// Property: random staircase polygons decompose exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomStaircase(rng)
		rects, err := p.Rects()
		if err != nil {
			return false
		}
		var sum int64
		for _, r := range rects {
			sum += r.Area()
		}
		return sum == p.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomStaircase builds a random monotone staircase polygon, always simple.
func randomStaircase(rng *rand.Rand) Polygon {
	n := 2 + rng.Intn(5)
	// Build a descending staircase from top-left to bottom-right.
	xs := make([]Coord, n+1)
	ys := make([]Coord, n+1)
	xs[0], ys[0] = 0, Coord(10+rng.Intn(20))
	for i := 1; i <= n; i++ {
		xs[i] = xs[i-1] + Coord(1+rng.Intn(8))
		ys[i] = ys[i-1] - Coord(1+rng.Intn(int(ys[i-1])/n+1))
		if ys[i] < 1 {
			ys[i] = 1
		}
		if ys[i] >= ys[i-1] {
			ys[i] = ys[i-1] - 1
		}
	}
	var pts []Point
	pts = append(pts, Point{0, 0})
	// Right along the bottom.
	pts = append(pts, Point{xs[n], 0})
	// Up the right side then staircase back left.
	for i := n; i >= 1; i-- {
		pts = append(pts, Point{xs[i], ys[i]})
		pts = append(pts, Point{xs[i-1], ys[i]})
	}
	// Close up the left edge to (0, ys[0]) ... (0,0) via first point.
	// pts currently ends at {0, ys[1]}; polygon closes to {0,0}.
	return Polygon{Pts: dedupCollinear(pts)}
}

// dedupCollinear removes repeated points that would create zero-length edges.
func dedupCollinear(pts []Point) []Point {
	out := pts[:0]
	for _, p := range pts {
		if len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
	}
	if len(out) > 1 && out[0] == out[len(out)-1] {
		out = out[:len(out)-1]
	}
	return out
}

func BenchmarkPolygonRects(b *testing.B) {
	p := Polygon{Pts: []Point{
		{4, 0}, {8, 0}, {8, 4}, {12, 4}, {12, 8}, {8, 8}, {8, 12}, {4, 12}, {4, 8}, {0, 8}, {0, 4}, {4, 4},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Rects(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTotalArea(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := make([]Rect, 200)
	for i := range rects {
		x, y := Coord(rng.Intn(1000)), Coord(rng.Intn(1000))
		rects[i] = R(x, y, x+Coord(10+rng.Intn(100)), y+Coord(10+rng.Intn(100)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TotalArea(rects)
	}
}

func TestOverlapsDegenerateRects(t *testing.T) {
	// Regression (found by testing/quick during a benchmark run): a
	// zero-height rectangle whose line crosses another rectangle's
	// interior must not count as overlapping — Overlaps means shared
	// positive area.
	line := Rect{X0: 18, Y0: -29, X1: 116, Y1: -29}
	solid := R(2, -77, 69, 22)
	if line.Overlaps(solid) || solid.Overlaps(line) {
		t.Fatal("degenerate rect must not overlap")
	}
	if line.OverlapArea(solid) != 0 {
		t.Fatal("degenerate overlap area must be 0")
	}
	// Touches (the closed test) still sees the contact.
	if !line.Touches(solid) {
		t.Fatal("degenerate rect still touches")
	}
	empty := Rect{}
	if empty.Overlaps(empty) {
		t.Fatal("empty self-overlap")
	}
}
