package features

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hotspot/internal/geom"
)

func win() geom.Rect { return geom.R(0, 0, 100, 100) }

// Two interior vertical bars: 2 internal features (the bars), 1 external
// (the gap between them), 2 segments (top and bottom boundary spaces).
func twoBars() []geom.Rect {
	return []geom.Rect{
		geom.R(10, 10, 30, 90),
		geom.R(60, 10, 80, 90),
	}
}

func countKind(rules []RuleRect, k Kind) int {
	n := 0
	for _, r := range rules {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func TestExtractTwoBars(t *testing.T) {
	rules := Extract(twoBars(), win())
	if got := countKind(rules, Internal); got != 2 {
		t.Fatalf("internal features: %d, want 2 (%+v)", got, rules)
	}
	if got := countKind(rules, External); got != 1 {
		t.Fatalf("external features: %d, want 1 (%+v)", got, rules)
	}
	if got := countKind(rules, Segment); got != 2 {
		t.Fatalf("segment features: %d, want 2 (%+v)", got, rules)
	}
	// The external rule must record the 30nm gap.
	for _, r := range rules {
		if r.Kind == External {
			if r.W != 30 || r.H != 80 || r.DX != 30 || r.DY != 10 {
				t.Fatalf("external rule: %+v", r)
			}
		}
	}
}

func TestExtractDiagonal(t *testing.T) {
	rects := []geom.Rect{
		geom.R(10, 10, 30, 30),
		geom.R(60, 60, 90, 90),
	}
	rules := Extract(rects, win())
	if countKind(rules, Diagonal) == 0 {
		t.Fatalf("missing diagonal feature: %+v", rules)
	}
	found := false
	for _, r := range rules {
		if r.Kind == Diagonal && r.DX == 30 && r.DY == 30 && r.W == 30 && r.H == 30 {
			found = true
		}
	}
	if !found {
		t.Fatalf("diagonal corner region wrong: %+v", rules)
	}
}

func TestExtractBoundaryMark(t *testing.T) {
	// A bar touching the left boundary must carry the boundary mark.
	rects := []geom.Rect{geom.R(0, 40, 30, 60)}
	rules := Extract(rects, win())
	marked := false
	for _, r := range rules {
		if r.Kind == Internal && r.Boundary {
			marked = true
		}
	}
	if !marked {
		t.Fatalf("boundary mark missing: %+v", rules)
	}
}

func TestExtractDeterministic(t *testing.T) {
	a := Extract(twoBars(), win())
	b := Extract(twoBars(), win())
	if len(a) != len(b) {
		t.Fatal("nondeterministic rule count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rule %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNonTopoRectangle(t *testing.T) {
	nt := ComputeNonTopo([]geom.Rect{geom.R(10, 10, 50, 30)}, win())
	if nt.Corners != 4 {
		t.Fatalf("corners: %d, want 4", nt.Corners)
	}
	if nt.Touches != 0 {
		t.Fatalf("touches: %d, want 0", nt.Touches)
	}
	if nt.MinInternal != 20 {
		t.Fatalf("min internal: %d, want 20", nt.MinInternal)
	}
	if nt.MinExternal != 0 {
		t.Fatalf("min external: %d, want 0", nt.MinExternal)
	}
	if nt.Density != float64(40*20)/float64(100*100) {
		t.Fatalf("density: %v", nt.Density)
	}
}

func TestNonTopoLShapeCorners(t *testing.T) {
	// L shape from two rects: 6 corners even though the decomposition seam
	// adds collinear points.
	rects := []geom.Rect{
		geom.R(10, 10, 50, 30),
		geom.R(10, 30, 30, 60),
	}
	nt := ComputeNonTopo(rects, win())
	if nt.Corners != 6 {
		t.Fatalf("L corners: %d, want 6", nt.Corners)
	}
	// Min internal: the L's arms are 20 wide (y-arm) and 20 tall (x-arm).
	if nt.MinInternal != 20 {
		t.Fatalf("L min internal: %d", nt.MinInternal)
	}
}

func TestNonTopoTouchPoint(t *testing.T) {
	rects := []geom.Rect{
		geom.R(10, 10, 30, 30),
		geom.R(30, 30, 50, 50),
	}
	nt := ComputeNonTopo(rects, win())
	if nt.Touches != 1 {
		t.Fatalf("touches: %d, want 1", nt.Touches)
	}
}

func TestNonTopoMinExternal(t *testing.T) {
	nt := ComputeNonTopo(twoBars(), win())
	if nt.MinExternal != 30 {
		t.Fatalf("min external: %d, want 30", nt.MinExternal)
	}
	if nt.MinInternal != 20 {
		t.Fatalf("min internal: %d, want 20", nt.MinInternal)
	}
}

func TestNonTopoSeamInvariance(t *testing.T) {
	// Splitting a bar into two abutting rects must not change any feature.
	whole := []geom.Rect{geom.R(10, 10, 80, 30)}
	split := []geom.Rect{geom.R(10, 10, 40, 30), geom.R(40, 10, 80, 30)}
	a := ComputeNonTopo(whole, win())
	b := ComputeNonTopo(split, win())
	if a != b {
		t.Fatalf("seam changed features: %+v vs %+v", a, b)
	}
}

func TestExtractorOrientationStable(t *testing.T) {
	e := NewExtractor(twoBars(), win())
	base := e.Vector(twoBars(), win())
	for _, o := range geom.AllOrientations {
		rot := o.ApplyToRects(twoBars(), 100)
		got := e.Vector(rot, win())
		if len(got) != len(base) {
			t.Fatalf("%v: dim %d != %d", o, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("%v: component %d: %v != %v", o, i, got[i], base[i])
			}
		}
	}
}

func TestExtractorDim(t *testing.T) {
	e := NewExtractor(twoBars(), win())
	if e.Dim() != len(e.slots)*SlotDim+NonTopoDim {
		t.Fatalf("dim: %d", e.Dim())
	}
	v := e.Vector(twoBars(), win())
	if len(v) != e.Dim() {
		t.Fatalf("vector len %d != dim %d", len(v), e.Dim())
	}
}

func TestExtractorAlignsSimilarGeometry(t *testing.T) {
	// Same topology, slightly different gap: the external slot must carry
	// the changed measurement.
	e := NewExtractor(twoBars(), win())
	variant := []geom.Rect{
		geom.R(10, 10, 30, 90),
		geom.R(55, 10, 80, 90), // gap 25 instead of 30
	}
	a := e.Vector(twoBars(), win())
	b := e.Vector(variant, win())
	if len(a) != len(b) {
		t.Fatal("dims differ")
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("variant produced an identical vector")
	}
}

func TestExtractorMissingSlotsZero(t *testing.T) {
	e := NewExtractor(twoBars(), win())
	// A single bar has no external feature: that slot must be zero, and
	// the vector keeps the same length.
	v := e.Vector([]geom.Rect{geom.R(10, 10, 30, 90)}, win())
	if len(v) != e.Dim() {
		t.Fatalf("dim changed: %d", len(v))
	}
}

func TestVectorDirect(t *testing.T) {
	v := VectorDirect(twoBars(), win(), 8)
	if len(v) != 8*SlotDim+NonTopoDim {
		t.Fatalf("direct vector len: %d", len(v))
	}
	// Orientation stability holds for the direct path too.
	for _, o := range geom.AllOrientations {
		rot := o.ApplyToRects(twoBars(), 100)
		got := VectorDirect(rot, win(), 8)
		for i := range got {
			if got[i] != v[i] {
				t.Fatalf("%v: direct component %d differs", o, i)
			}
		}
	}
}

func TestQuickExtractorStableDim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rects []geom.Rect
		for i := 0; i < 1+rng.Intn(5); i++ {
			x := geom.Coord(rng.Intn(8) * 10)
			y := geom.Coord(rng.Intn(8) * 10)
			rects = append(rects, geom.R(x, y, x+geom.Coord(1+rng.Intn(3))*10, y+geom.Coord(1+rng.Intn(3))*10))
		}
		e := NewExtractor(rects, win())
		// Any other random pattern must produce a vector of e.Dim().
		var other []geom.Rect
		for i := 0; i < 1+rng.Intn(5); i++ {
			x := geom.Coord(rng.Intn(8) * 10)
			y := geom.Coord(rng.Intn(8) * 10)
			other = append(other, geom.R(x, y, x+geom.Coord(1+rng.Intn(3))*10, y+geom.Coord(1+rng.Intn(3))*10))
		}
		return len(e.Vector(other, win())) == e.Dim()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiLayerSet(t *testing.T) {
	m1 := []geom.Rect{geom.R(10, 10, 90, 30)}
	m2 := []geom.Rect{geom.R(40, 0, 60, 100)}
	set := ExtractMultiLayer([][]geom.Rect{m1, m2}, win())
	if len(set.PerLayer) != 2 || len(set.Overlaps) != 1 {
		t.Fatalf("set shape: %d layers, %d overlaps", len(set.PerLayer), len(set.Overlaps))
	}
	// Overlap rules carry only internal/diagonal kinds.
	for _, r := range set.Overlaps[0] {
		if r.Kind != Internal && r.Kind != Diagonal {
			t.Fatalf("overlap rule of kind %v", r.Kind)
		}
	}
	v := set.Vector(win(), 4)
	if len(v) != (2+1)*(4*SlotDim+NonTopoDim) {
		t.Fatalf("multilayer vector len: %d", len(v))
	}
	// The overlap set's nontopological density must reflect the landing.
	if set.OverlapNT[0].Density <= 0 {
		t.Fatalf("overlap density: %v", set.OverlapNT[0].Density)
	}
}

func TestMultiLayerOverlapSortedByArea(t *testing.T) {
	m1 := []geom.Rect{geom.R(0, 10, 100, 30), geom.R(0, 50, 100, 90)}
	m2 := []geom.Rect{geom.R(10, 0, 20, 100), geom.R(60, 0, 90, 100)}
	set := ExtractMultiLayer([][]geom.Rect{m1, m2}, win())
	rules := set.Overlaps[0]
	for i := 1; i < len(rules); i++ {
		a := int64(rules[i-1].W) * int64(rules[i-1].H)
		b := int64(rules[i].W) * int64(rules[i].H)
		if a > b {
			t.Fatalf("overlap rules not area-sorted: %v", rules)
		}
	}
}

func TestOverlapRects(t *testing.T) {
	got := OverlapRects(
		[]geom.Rect{geom.R(0, 0, 50, 50)},
		[]geom.Rect{geom.R(40, 40, 100, 100), geom.R(60, 0, 70, 10)},
	)
	if len(got) != 1 || got[0] != geom.R(40, 40, 50, 50) {
		t.Fatalf("overlap: %v", got)
	}
}

func TestDoublePatternSet(t *testing.T) {
	m1 := []geom.Rect{geom.R(10, 10, 30, 90)}
	m2 := []geom.Rect{geom.R(60, 10, 80, 90)}
	set := ExtractDoublePattern(m1, m2, win())
	if len(set.Combined) == 0 {
		t.Fatal("combined rules empty")
	}
	v := set.Vector(4)
	if len(v) != 3*4*(SlotDim+1) {
		t.Fatalf("dp vector len: %d", len(v))
	}
	// Mask marks present: components at the mark positions must be 1 / 2.
	if v[SlotDim] != 1 {
		t.Fatalf("mask1 mark: %v", v[SlotDim])
	}
}

func BenchmarkExtract(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var rects []geom.Rect
	for i := 0; i < 10; i++ {
		x := geom.Coord(rng.Intn(90) * 10)
		y := geom.Coord(rng.Intn(90) * 10)
		rects = append(rects, geom.R(x, y, x+100, y+geom.Coord(1+rng.Intn(40))*10))
	}
	w := geom.R(0, 0, 1200, 1200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Extract(rects, w)
	}
}

func BenchmarkExtractorVector(b *testing.B) {
	e := NewExtractor(twoBars(), win())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Vector(twoBars(), win())
	}
}
