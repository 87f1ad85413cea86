package topo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hotspot/internal/geom"
)

// Fig. 5(a): slice 1 is a single full-height block (code 11b = 3); slice 2
// is space/block/space (code 1010b = 10).
func TestPaperExampleSliceCodes(t *testing.T) {
	window := geom.R(0, 0, 40, 40)
	rects := []geom.Rect{
		geom.R(0, 0, 20, 40),   // full-height block in slice 1
		geom.R(20, 10, 40, 30), // centred block in slice 2
	}
	s := ComputeStrings(rects, window)
	if len(s.Bottom) != 2 || s.Bottom[0] != 3 || s.Bottom[1] != 10 {
		t.Fatalf("bottom string: %v, want [3 10]", s.Bottom)
	}
}

func TestStringSidesUnderRotation(t *testing.T) {
	window := geom.R(0, 0, 100, 100)
	rects := []geom.Rect{
		geom.R(0, 0, 30, 100),
		geom.R(50, 20, 80, 60),
	}
	s := ComputeStrings(rects, window)
	// Rotate the pattern 90 CCW; its Right string must equal the
	// original's Bottom string.
	rot := geom.Rot90.ApplyToRects(rects, 100)
	rw := geom.Rot90.ApplyToRect(window, 100)
	sr := ComputeStrings(rot, rw)
	if !equalU64(sr.Right, s.Bottom) {
		t.Fatalf("rot90: right %v != bottom %v", sr.Right, s.Bottom)
	}
	if !equalU64(sr.Top, s.Right) {
		t.Fatalf("rot90: top %v != right %v", sr.Top, s.Right)
	}
	if !equalU64(sr.Left, s.Top) {
		t.Fatalf("rot90: left %v != top %v", sr.Left, s.Top)
	}
	if !equalU64(sr.Bottom, s.Left) {
		t.Fatalf("rot90: bottom %v != left %v", sr.Bottom, s.Left)
	}
}

func TestStringSidesUnderMirror(t *testing.T) {
	window := geom.R(0, 0, 100, 100)
	rects := []geom.Rect{
		geom.R(0, 0, 30, 100),
		geom.R(50, 20, 80, 60),
	}
	s := ComputeStrings(rects, window)
	mir := geom.MirRot0.ApplyToRects(rects, 100)
	sm := ComputeStrings(mir, window)
	// Mirror about the vertical axis: bottom slice order reverses, codes
	// unchanged.
	rev := make([]uint64, len(s.Bottom))
	for i, c := range s.Bottom {
		rev[len(rev)-1-i] = c
	}
	if !equalU64(sm.Bottom, rev) {
		t.Fatalf("mirror bottom: %v, want %v", sm.Bottom, rev)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestReverseCode(t *testing.T) {
	// 1010b reversed (keeping the marker) is 1010b -> regions 010 -> 010
	// reversed = 010 -> 1010b again; 1011b -> regions 011 -> reversed 110
	// -> 1110b.
	if got := reverse(0b1010); got != 0b1010 {
		t.Fatalf("reverse(1010b) = %b", got)
	}
	if got := reverse(0b1011); got != 0b1110 {
		t.Fatalf("reverse(1011b) = %b", got)
	}
	if got := reverse(0b11); got != 0b11 {
		t.Fatalf("reverse(11b) = %b", got)
	}
	if got := reverse(1); got != 1 {
		t.Fatalf("reverse(1b) = %b", got)
	}
}

func randomPattern(rng *rand.Rand) ([]geom.Rect, geom.Rect) {
	window := geom.R(0, 0, 120, 120)
	n := 1 + rng.Intn(4)
	var rects []geom.Rect
	for i := 0; i < n; i++ {
		x := geom.Coord(rng.Intn(10) * 10)
		y := geom.Coord(rng.Intn(10) * 10)
		w := geom.Coord((1 + rng.Intn(5)) * 10)
		h := geom.Coord((1 + rng.Intn(5)) * 10)
		rects = append(rects, geom.R(x, y, x+w, y+h))
	}
	return rects, window
}

func TestCanonicalKeyOrientationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rects, window := randomPattern(rng)
		key := CanonicalKey(rects, window)
		for _, o := range geom.AllOrientations {
			tr := o.ApplyToRects(rects, 120)
			if CanonicalKey(tr, window) != key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchCompositeAgreesWithCanonicalKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	agree := 0
	for trial := 0; trial < 300; trial++ {
		ra, window := randomPattern(rng)
		var rb []geom.Rect
		if trial%3 == 0 {
			// Same pattern under a random orientation: must match.
			o := geom.AllOrientations[rng.Intn(8)]
			rb = o.ApplyToRects(ra, 120)
		} else {
			rb, _ = randomPattern(rng)
		}
		sa := ComputeStrings(ra, window)
		sb := ComputeStrings(rb, window)
		composite := MatchComposite(sa, sb)
		canonical := CanonicalKey(ra, window) == CanonicalKey(rb, window)
		if canonical && !composite {
			t.Fatalf("trial %d: canonical match but composite miss\nA=%v\nB=%v", trial, ra, rb)
		}
		if composite == canonical {
			agree++
		}
	}
	// The composite-substring test (Theorem 1) is allowed rare false
	// positives across side boundaries in principle, but on this
	// distribution the two must agree nearly always.
	if agree < 295 {
		t.Fatalf("composite and canonical agree on only %d/300 trials", agree)
	}
}

func TestMatchCompositeSelf(t *testing.T) {
	rects := []geom.Rect{geom.R(0, 0, 30, 120), geom.R(60, 30, 100, 80)}
	window := geom.R(0, 0, 120, 120)
	s := ComputeStrings(rects, window)
	if !MatchComposite(s, s) {
		t.Fatal("pattern must match itself")
	}
	for _, o := range geom.AllOrientations {
		so := ComputeStrings(o.ApplyToRects(rects, 120), window)
		if !MatchComposite(s, so) {
			t.Fatalf("pattern must match its %v orientation", o)
		}
	}
}

func TestMatchCompositeRejectsDifferentTopology(t *testing.T) {
	window := geom.R(0, 0, 120, 120)
	a := ComputeStrings([]geom.Rect{geom.R(0, 0, 120, 40)}, window)
	b := ComputeStrings([]geom.Rect{geom.R(0, 0, 40, 40), geom.R(80, 80, 120, 120)}, window)
	if MatchComposite(a, b) {
		t.Fatal("different topologies must not match")
	}
}

func TestComputeDensityExact(t *testing.T) {
	window := geom.R(0, 0, 120, 120)
	d := ComputeDensity([]geom.Rect{geom.R(0, 0, 60, 120)}, window, 12)
	// Left half fully covered: pixels x=0..5 are 1, x=6..11 are 0.
	for y := 0; y < 12; y++ {
		for x := 0; x < 12; x++ {
			want := 0.0
			if x < 6 {
				want = 1.0
			}
			if got := d.D[y*12+x]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("pixel (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
	// Partial coverage.
	d2 := ComputeDensity([]geom.Rect{geom.R(0, 0, 5, 10)}, window, 12)
	if math.Abs(d2.D[0]-0.5) > 1e-9 {
		t.Fatalf("partial pixel: %v", d2.D[0])
	}
}

func TestDensityDistProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ra, window := randomPattern(rng)
		rb, _ := randomPattern(rng)
		da := ComputeDensity(ra, window, 12)
		db := ComputeDensity(rb, window, 12)
		// Identity, symmetry, orientation invariance.
		if Dist(da, da) != 0 {
			return false
		}
		if math.Abs(Dist(da, db)-Dist(db, da)) > 1e-9 {
			return false
		}
		o := geom.AllOrientations[rng.Intn(8)]
		if Dist(da, da.Orient(o)) > 1e-9 {
			return false
		}
		return Dist(da, db) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDensityOrientRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rects, window := randomPattern(rng)
	d := ComputeDensity(rects, window, 12)
	for _, o := range geom.AllOrientations {
		// Mirror-rotations are involutions; rotations invert mod 4.
		inv := o
		if o < geom.MirRot0 {
			inv = geom.Orientation((4 - int(o)) % 4)
		}
		back := d.Orient(o).Orient(inv)
		if l1(d, back) > 1e-12 {
			t.Fatalf("orient %v round trip failed", o)
		}
	}
}

func TestDensityOrientMatchesGeometry(t *testing.T) {
	// Orienting the grid must equal computing the grid of the oriented
	// geometry.
	rects := []geom.Rect{geom.R(0, 0, 30, 120), geom.R(60, 30, 100, 80)}
	window := geom.R(0, 0, 120, 120)
	d := ComputeDensity(rects, window, 12)
	for _, o := range geom.AllOrientations {
		want := ComputeDensity(o.ApplyToRects(rects, 120), window, 12)
		got := d.Orient(o)
		if l1(want, got) > 1e-9 {
			t.Fatalf("orient %v: grid mismatch (l1=%v)", o, l1(want, got))
		}
	}
}

func mkSample(rects []geom.Rect) Sample {
	return Sample{Rects: rects, Region: geom.R(0, 0, 1200, 1200)}
}

func TestClassifySeparatesTopologies(t *testing.T) {
	// Three horizontal bars vs a cross: different topologies.
	bars := []geom.Rect{
		geom.R(0, 100, 1200, 300),
		geom.R(0, 500, 1200, 700),
		geom.R(0, 900, 1200, 1100),
	}
	cross := []geom.Rect{
		geom.R(500, 0, 700, 1200),
		geom.R(0, 500, 1200, 700),
	}
	pats := []Sample{
		mkSample(bars),
		mkSample(cross),
		mkSample(bars),
	}
	clusters := Classify(pats, DefaultOptions)
	if len(clusters) != 2 {
		t.Fatalf("clusters: %d, want 2", len(clusters))
	}
	total := 0
	for _, c := range clusters {
		total += len(c.Members)
	}
	if total != 3 {
		t.Fatalf("members: %d, want 3", total)
	}
}

func TestClassifyMergesOrientations(t *testing.T) {
	bars := []geom.Rect{
		geom.R(0, 100, 1200, 300),
		geom.R(0, 500, 1200, 700),
		geom.R(0, 900, 1200, 1100),
	}
	rot := geom.Rot90.ApplyToRects(bars, 1200)
	pats := []Sample{
		mkSample(bars),
		mkSample(rot),
	}
	clusters := Classify(pats, DefaultOptions)
	if len(clusters) != 1 {
		t.Fatalf("orientations must share a cluster, got %d clusters", len(clusters))
	}
	if len(clusters[0].Members) != 2 {
		t.Fatalf("cluster members: %d", len(clusters[0].Members))
	}
}

func TestClassifyDensitySplitsSameTopology(t *testing.T) {
	// Same topology (single bar) but very different geometry: a thin bar
	// vs a thick one. With a tight R0 and large K they must split.
	thin := []geom.Rect{geom.R(0, 550, 1200, 650)}   // 100nm bar
	thick := []geom.Rect{geom.R(0, 100, 1200, 1100)} // 1000nm bar
	pats := []Sample{
		mkSample(thin),
		mkSample(thick),
		mkSample(thin),
	}
	opts := DefaultOptions
	opts.R0 = 0.1
	opts.K = 1000
	clusters := Classify(pats, opts)
	if len(clusters) != 2 {
		t.Fatalf("density split failed: %d clusters", len(clusters))
	}
}

func TestClassifyRepresentativeIsMember(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var pats []Sample
	for i := 0; i < 12; i++ {
		rects, _ := randomPattern(rng)
		// Scale up into the core window.
		scaled := make([]geom.Rect, len(rects))
		for j, r := range rects {
			scaled[j] = geom.R(r.X0*10, r.Y0*10, r.X1*10, r.Y1*10)
		}
		pats = append(pats, mkSample(scaled))
	}
	clusters := Classify(pats, DefaultOptions)
	seen := make(map[int]bool)
	for _, c := range clusters {
		if len(c.Members) == 0 {
			t.Fatal("empty cluster")
		}
		isMember := false
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("pattern %d in two clusters", m)
			}
			seen[m] = true
			if m == c.Representative {
				isMember = true
			}
		}
		if !isMember {
			t.Fatalf("representative %d not a member", c.Representative)
		}
	}
	if len(seen) != len(pats) {
		t.Fatalf("assigned %d of %d patterns", len(seen), len(pats))
	}
}

func BenchmarkCanonicalKey(b *testing.B) {
	rects := []geom.Rect{
		geom.R(0, 100, 1200, 300),
		geom.R(0, 500, 1200, 700),
		geom.R(300, 900, 900, 1100),
		geom.R(500, 0, 700, 500),
	}
	window := geom.R(0, 0, 1200, 1200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CanonicalKey(rects, window)
	}
}

func BenchmarkDensityDist(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ra, window := randomPattern(rng)
	rb, _ := randomPattern(rng)
	da := ComputeDensity(ra, window, 12)
	db := ComputeDensity(rb, window, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dist(da, db)
	}
}
