package layout

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"hotspot/internal/gds"
	"hotspot/internal/geom"
)

func TestLayoutAddAndBounds(t *testing.T) {
	l := New("t")
	l.AddRect(1, geom.R(0, 0, 10, 10))
	l.AddRect(1, geom.R(20, 20, 30, 40))
	l.AddRect(2, geom.R(-5, 0, 0, 5))
	if l.Bounds != geom.R(-5, 0, 30, 40) {
		t.Fatalf("bounds: %v", l.Bounds)
	}
	if l.NumRects() != 3 {
		t.Fatalf("num rects: %d", l.NumRects())
	}
	if got := l.Layers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("layers: %v", got)
	}
	l.AddRect(3, geom.Rect{}) // empty: ignored
	if l.NumRects() != 3 {
		t.Fatal("empty rect must be ignored")
	}
}

func TestLayoutAddPolygon(t *testing.T) {
	l := New("t")
	lshape := geom.Polygon{Pts: []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 5), geom.Pt(5, 5), geom.Pt(5, 10), geom.Pt(0, 10),
	}}
	if err := l.AddPolygon(1, lshape); err != nil {
		t.Fatal(err)
	}
	if l.PolygonArea(1) != 75 {
		t.Fatalf("polygon area: %d", l.PolygonArea(1))
	}
}

func TestQueryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var dense []geom.Rect
	for i := 0; i < 500; i++ {
		x := geom.Coord(rng.Intn(10000))
		y := geom.Coord(rng.Intn(10000))
		dense = append(dense, geom.R(x, y, x+geom.Coord(10+rng.Intn(400)), y+geom.Coord(10+rng.Intn(400))))
	}
	denseWindow := func() geom.Rect {
		x := geom.Coord(rng.Intn(10000) - 500)
		y := geom.Coord(rng.Intn(10000) - 500)
		return geom.R(x, y, x+geom.Coord(rng.Intn(2000)), y+geom.Coord(rng.Intn(2000)))
	}
	// Two cores 10^8 dbu apart: the grid's cell count is bounded by the
	// rectangle count, so its cells are far wider than the rectangles.
	sparse := sparseCores()
	sparseWindow := func() geom.Rect {
		c := sparse[rng.Intn(len(sparse))]
		if rng.Intn(4) == 0 { // anywhere in the extent, usually empty
			c = geom.R(0, 0, 100000000, 100000000)
		}
		x := c.X0 + geom.Coord(rng.Int63n(int64(c.W())+1)) - 1500
		y := c.Y0 + geom.Coord(rng.Int63n(int64(c.H())+1)) - 1500
		return geom.R(x, y, x+geom.Coord(rng.Intn(3000)), y+geom.Coord(rng.Intn(3000)))
	}
	for _, tc := range []struct {
		rects  []geom.Rect
		window func() geom.Rect
	}{{dense, denseWindow}, {sparse, sparseWindow}} {
		l := New("t")
		for _, r := range tc.rects {
			l.AddRect(1, r)
		}
		g := NewGrid(tc.rects)
		for trial := 0; trial < 100; trial++ {
			w := tc.window()
			got := l.Query(1, w, nil)
			var want []geom.Rect
			var wantIdx []int
			for i, r := range tc.rects {
				if r.Overlaps(w) {
					want = append(want, r)
					wantIdx = append(wantIdx, i)
				}
			}
			if !sameRectSet(got, want) {
				t.Fatalf("trial %d window %v: got %d rects, want %d", trial, w, len(got), len(want))
			}
			// Indices names the same rectangles by position, each once.
			gotIdx := g.Indices(w, nil)
			sort.Ints(gotIdx)
			if !slices.Equal(gotIdx, wantIdx) {
				t.Fatalf("trial %d window %v: Indices = %v, want %v", trial, w, gotIdx, wantIdx)
			}
		}
	}
}

// sparseCores is two 1,200-dbu clip cores 10^8 dbu apart on the diagonal.
func sparseCores() []geom.Rect {
	return []geom.Rect{geom.R(0, 0, 1200, 1200), geom.R(100000000-1200, 100000000-1200, 100000000, 100000000)}
}

// TestSparseGridStaysSmall pins that indexing a few rectangles far apart
// allocates kilobytes, not the tens of megabytes of empty cells a grid
// bounded only by MaxGridCells took.
func TestSparseGridStaysSmall(t *testing.T) {
	rects := sparseCores()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewGrid(rects)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewGrid over two far-apart cores allocated %d bytes, want under 1 MiB", got)
	}
	if got := g.Indices(rects[1], nil); !slices.Equal(got, []int{1}) {
		t.Fatalf("Indices(%v) = %v, want [1]", rects[1], got)
	}
}

func sameRectSet(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r geom.Rect) [4]geom.Coord { return [4]geom.Coord{r.X0, r.Y0, r.X1, r.Y1} }
	as := make([][4]geom.Coord, len(a))
	bs := make([][4]geom.Coord, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	less := func(x, y [4]geom.Coord) bool {
		for i := 0; i < 4; i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return false
	}
	sort.Slice(as, func(i, j int) bool { return less(as[i], as[j]) })
	sort.Slice(bs, func(i, j int) bool { return less(bs[i], bs[j]) })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestQueryNoDuplicatesForSpanningRects(t *testing.T) {
	// One huge rectangle spanning many grid cells must be reported once.
	l := New("t")
	l.AddRect(1, geom.R(0, 0, 100000, 100000))
	for i := 0; i < 200; i++ {
		l.AddRect(1, geom.R(geom.Coord(i*500), 0, geom.Coord(i*500+10), 10))
	}
	got := l.Query(1, geom.R(0, 0, 100000, 100000), nil)
	count := 0
	for _, r := range got {
		if r == geom.R(0, 0, 100000, 100000) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("spanning rect reported %d times", count)
	}
}

// TestGridDegenerateAndWideRects indexes sets NewGrid once panicked on
// with a negative cell count: an inverted rectangle first (it set the
// bounds), and a rectangle so wide that 4x the average dimension wrapped
// int32. Empty rectangles are never reported; the wide ones are found.
func TestGridDegenerateAndWideRects(t *testing.T) {
	inverted := geom.Rect{X0: 13536, Y0: 0, X1: 12336, Y1: 1200}
	wide := geom.R(-2000000000, -2000000000, -199999000, -1999999900)
	for _, tc := range []struct {
		rects  []geom.Rect
		window geom.Rect
		want   []int
	}{
		{[]geom.Rect{inverted}, geom.R(0, 0, 20000, 2000), nil},
		{[]geom.Rect{inverted, geom.R(0, 0, 1200, 1200), {}}, geom.R(0, 0, 20000, 2000), []int{1}},
		{[]geom.Rect{wide}, geom.R(-1000000000, -2000000000, -999999000, -1999999000), []int{0}},
		{[]geom.Rect{wide, geom.R(2000000000, 0, 2000001000, 100)}, geom.R(2000000000, 0, 2000000001, 1), []int{1}},
	} {
		got := NewGrid(tc.rects).Indices(tc.window, nil)
		if !slices.Equal(got, tc.want) {
			t.Errorf("NewGrid(%v).Indices(%v) = %v, want %v", tc.rects, tc.window, got, tc.want)
		}
	}
}

func TestQueryConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := New("t")
	for i := 0; i < 300; i++ {
		x := geom.Coord(rng.Intn(5000))
		y := geom.Coord(rng.Intn(5000))
		l.AddRect(1, geom.R(x, y, x+50, y+50))
	}
	// Warm the index once, then hammer it from many goroutines; run with
	// -race to catch unsynchronized access.
	_ = l.Query(1, geom.R(0, 0, 10, 10), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				x := geom.Coord(r.Intn(5000))
				y := geom.Coord(r.Intn(5000))
				l.Query(1, geom.R(x, y, x+600, y+600), nil)
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestQueryClippedAndDensity(t *testing.T) {
	l := New("t")
	l.AddRect(1, geom.R(0, 0, 10, 10))
	window := geom.R(5, 5, 15, 15)
	got := l.QueryClipped(1, window, nil)
	if len(got) != 1 || got[0] != geom.R(5, 5, 10, 10) {
		t.Fatalf("clipped: %v", got)
	}
}

func TestGDSRoundTrip(t *testing.T) {
	l := New("RT")
	l.AddRect(1, geom.R(0, 0, 100, 50))
	l.AddRect(1, geom.R(200, 0, 300, 50))
	l.AddRect(5, geom.R(0, 100, 50, 200))

	lib := l.ToGDS("TOP")
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lib2, err := parseGDS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := FromGDS(lib2, "TOP")
	if err != nil {
		t.Fatal(err)
	}
	if l2.NumRects() != 3 {
		t.Fatalf("round-trip rects: %d", l2.NumRects())
	}
	if l2.PolygonArea(1) != l.PolygonArea(1) {
		t.Fatalf("area mismatch: %d vs %d", l2.PolygonArea(1), l.PolygonArea(1))
	}
	if l2.Bounds != l.Bounds {
		t.Fatalf("bounds mismatch: %v vs %v", l2.Bounds, l.Bounds)
	}
}

func BenchmarkGridQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	l := New("b")
	for i := 0; i < 50000; i++ {
		x := geom.Coord(rng.Intn(300000))
		y := geom.Coord(rng.Intn(300000))
		l.AddRect(1, geom.R(x, y, x+64, y+geom.Coord(100+rng.Intn(2000))))
	}
	_ = l.Query(1, geom.R(0, 0, 1, 1), nil) // build index
	var dst []geom.Rect
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := geom.Coord((i * 7919) % 295000)
		dst = l.Query(1, geom.R(x, x, x+4800, x+4800), dst[:0])
	}
}

// parseGDS is a small helper wrapping gds.Parse over a byte slice.
func parseGDS(b []byte) (*gds.Library, error) {
	return gds.Parse(bytes.NewReader(b))
}
