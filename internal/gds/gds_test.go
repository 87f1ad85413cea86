package gds

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hotspot/internal/geom"
)

func TestReal8KnownValues(t *testing.T) {
	cases := []struct {
		f    float64
		bits uint64
	}{
		{0, 0},
		{1, 0x4110000000000000},
		{2, 0x4120000000000000},
		{-3, 0xC130000000000000},
		{0.5, 0x4080000000000000},
		{1e-9, 0x3944B82FA09B5A54}, // database unit in metres
	}
	for _, c := range cases {
		if got := EncodeReal8(c.f); got != c.bits {
			t.Errorf("EncodeReal8(%v) = %#016x, want %#016x", c.f, got, c.bits)
		}
		back := DecodeReal8(c.bits)
		if math.Abs(back-c.f) > math.Abs(c.f)*1e-12 {
			t.Errorf("DecodeReal8(%#016x) = %v, want %v", c.bits, back, c.f)
		}
	}
}

func TestReal8RoundTripProperty(t *testing.T) {
	f := func(mant int32, exp uint8) bool {
		v := float64(mant) * math.Pow(2, float64(exp%40)-20)
		back := DecodeReal8(EncodeReal8(v))
		if v == 0 {
			return back == 0
		}
		return math.Abs(back-v) <= math.Abs(v)*1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	if err := rw.WriteInt16s(RecHeader, 600); err != nil {
		t.Fatal(err)
	}
	if err := rw.WriteASCII(RecLibName, "LIB"); err != nil {
		t.Fatal(err)
	}
	if err := rw.WriteInt32s(RecXY, 0, 0, 100, 200); err != nil {
		t.Fatal(err)
	}
	if err := rw.WriteReals(RecUnits, 1e-3, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := rw.WriteEmpty(RecEndLib); err != nil {
		t.Fatal(err)
	}

	rr := NewRecordReader(&buf)
	rec, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	v16, err := rec.Int16s()
	if err != nil || len(v16) != 1 || v16[0] != 600 {
		t.Fatalf("header round trip: %v %v", v16, err)
	}
	rec, _ = rr.Next()
	s, err := rec.ASCII()
	if err != nil || s != "LIB" {
		t.Fatalf("libname round trip: %q %v", s, err)
	}
	rec, _ = rr.Next()
	v32, err := rec.Int32s()
	if err != nil || !reflect.DeepEqual(v32, []int32{0, 0, 100, 200}) {
		t.Fatalf("xy round trip: %v %v", v32, err)
	}
	rec, _ = rr.Next()
	reals, err := rec.Reals()
	if err != nil || len(reals) != 2 || math.Abs(reals[0]-1e-3) > 1e-15 {
		t.Fatalf("units round trip: %v %v", reals, err)
	}
	rec, _ = rr.Next()
	if rec.Type != RecEndLib {
		t.Fatalf("want ENDLIB, got %#x", rec.Type)
	}
}

func TestRecordASCIIPadding(t *testing.T) {
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	if err := rw.WriteASCII(RecStrName, "ODD"); err != nil {
		t.Fatal(err)
	}
	rr := NewRecordReader(&buf)
	rec, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	s, err := rec.ASCII()
	if err != nil || s != "ODD" {
		t.Fatalf("odd-length string: %q %v", s, err)
	}
}

func testLibrary() *Library {
	return &Library{
		Name: "TESTLIB", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*Structure{
			{
				Name: "CELL",
				Boundaries: []Boundary{
					{Layer: 1, Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 50), geom.Pt(0, 50)}},
					{Layer: 2, Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(40, 0), geom.Pt(40, 40), geom.Pt(20, 40), geom.Pt(20, 80), geom.Pt(0, 80)}},
				},
				Paths: []Path{
					{Layer: 1, Width: 20, Pts: []geom.Point{geom.Pt(0, 200), geom.Pt(300, 200)}},
				},
			},
			{
				Name: "TOP",
				SRefs: []SRef{
					{Name: "CELL", Origin: geom.Pt(1000, 1000)},
					{Name: "CELL", Origin: geom.Pt(5000, 0), AngleCCW: 90},
					{Name: "CELL", Origin: geom.Pt(0, 5000), Reflect: true},
				},
				ARefs: []ARef{
					{
						Name: "CELL", Cols: 3, Rows: 2,
						Origin: geom.Pt(10000, 10000),
						ColVec: geom.Pt(3*600, 0),
						RowVec: geom.Pt(0, 2*400),
					},
				},
			},
		},
	}
}

func TestLibraryWriteParseRoundTrip(t *testing.T) {
	lib := testLibrary()
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != lib.Name {
		t.Fatalf("name: %q != %q", got.Name, lib.Name)
	}
	if math.Abs(got.MeterUnit-1e-9) > 1e-21 {
		t.Fatalf("meter unit: %v", got.MeterUnit)
	}
	if len(got.Structures) != 2 {
		t.Fatalf("structures: %d", len(got.Structures))
	}
	cell := got.Structure("CELL")
	if cell == nil || len(cell.Boundaries) != 2 || len(cell.Paths) != 1 {
		t.Fatalf("CELL content wrong: %+v", cell)
	}
	if !reflect.DeepEqual(cell.Boundaries[0].Pts, lib.Structures[0].Boundaries[0].Pts) {
		t.Fatalf("boundary pts: %v", cell.Boundaries[0].Pts)
	}
	top := got.Structure("TOP")
	if top == nil || len(top.SRefs) != 3 || len(top.ARefs) != 1 {
		t.Fatalf("TOP content wrong: %+v", top)
	}
	if top.SRefs[1].AngleCCW != 90 {
		t.Fatalf("sref angle: %v", top.SRefs[1].AngleCCW)
	}
	if !top.SRefs[2].Reflect {
		t.Fatal("sref reflect lost")
	}
	ar := top.ARefs[0]
	if ar.Cols != 3 || ar.Rows != 2 || ar.ColVec != geom.Pt(1800, 0) || ar.RowVec != geom.Pt(0, 800) {
		t.Fatalf("aref wrong: %+v", ar)
	}
}

func TestFlattenCounts(t *testing.T) {
	lib := testLibrary()
	flat, err := lib.Flatten("TOP")
	if err != nil {
		t.Fatal(err)
	}
	// CELL has 2 boundaries + 1 single-segment path = 3 polygons.
	// TOP places CELL 3 times via SREF + 6 times via AREF = 9 instances.
	if want := 9 * 3; len(flat) != want {
		t.Fatalf("flat polygons: %d, want %d", len(flat), want)
	}
}

func TestFlattenSRefTranslation(t *testing.T) {
	lib := testLibrary()
	flat, err := lib.Flatten("TOP")
	if err != nil {
		t.Fatal(err)
	}
	// First instance is translated by (1000,1000): its first boundary's
	// first point must be (1000,1000).
	if flat[0].Pts[0] != geom.Pt(1000, 1000) {
		t.Fatalf("translated pt: %v", flat[0].Pts[0])
	}
}

func TestFlattenRotation(t *testing.T) {
	lib := &Library{
		Name: "L", UserUnit: 1e-3, MeterUnit: 1e-9,
		Structures: []*Structure{
			{Name: "C", Boundaries: []Boundary{{Layer: 1, Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 4), geom.Pt(0, 4)}}}},
			{Name: "T", SRefs: []SRef{{Name: "C", AngleCCW: 90}}},
		},
	}
	flat, err := lib.Flatten("T")
	if err != nil {
		t.Fatal(err)
	}
	// 90 CCW maps (10,0)->(0,10), (10,4)->(-4,10).
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 10), geom.Pt(-4, 10), geom.Pt(-4, 0)}
	if !reflect.DeepEqual(flat[0].Pts, want) {
		t.Fatalf("rotated pts: %v, want %v", flat[0].Pts, want)
	}
}

func TestFlattenReflect(t *testing.T) {
	lib := &Library{
		Name: "L",
		Structures: []*Structure{
			{Name: "C", Boundaries: []Boundary{{Layer: 1, Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 4), geom.Pt(0, 4)}}}},
			{Name: "T", SRefs: []SRef{{Name: "C", Reflect: true}}},
		},
	}
	flat, err := lib.Flatten("T")
	if err != nil {
		t.Fatal(err)
	}
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, -4), geom.Pt(0, -4)}
	if !reflect.DeepEqual(flat[0].Pts, want) {
		t.Fatalf("reflected pts: %v, want %v", flat[0].Pts, want)
	}
}

func TestFlattenNestedTransforms(t *testing.T) {
	// Two nested 90-degree rotations must equal one 180-degree rotation.
	lib := &Library{
		Name: "L",
		Structures: []*Structure{
			{Name: "C", Boundaries: []Boundary{{Layer: 1, Pts: []geom.Point{geom.Pt(1, 2), geom.Pt(5, 2), geom.Pt(5, 3), geom.Pt(1, 3)}}}},
			{Name: "M", SRefs: []SRef{{Name: "C", AngleCCW: 90}}},
			{Name: "T", SRefs: []SRef{{Name: "M", AngleCCW: 90}}},
			{Name: "T2", SRefs: []SRef{{Name: "C", AngleCCW: 180}}},
		},
	}
	a, err := lib.Flatten("T")
	if err != nil {
		t.Fatal(err)
	}
	b, err := lib.Flatten("T2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0].Pts, b[0].Pts) {
		t.Fatalf("nested 90+90 != 180: %v vs %v", a[0].Pts, b[0].Pts)
	}
}

func TestFlattenCycleDetection(t *testing.T) {
	lib := &Library{
		Name: "L",
		Structures: []*Structure{
			{Name: "A", SRefs: []SRef{{Name: "B"}}},
			{Name: "B", SRefs: []SRef{{Name: "A"}}},
		},
	}
	if _, err := lib.Flatten("A"); err == nil {
		t.Fatal("cycle must be detected")
	}
}

func TestFlattenMissingRef(t *testing.T) {
	lib := &Library{
		Name:       "L",
		Structures: []*Structure{{Name: "A", SRefs: []SRef{{Name: "NOPE"}}}},
	}
	if _, err := lib.Flatten("A"); err == nil {
		t.Fatal("missing reference must error")
	}
}

func TestParseErrors(t *testing.T) {
	// Garbage header.
	if _, err := Parse(bytes.NewReader([]byte{0, 6, 0x10, 0x03, 0, 0})); err == nil {
		t.Fatal("stream not starting with HEADER must fail")
	}
	// Truncated stream.
	lib := testLibrary()
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Parse(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream must fail")
	}
	// A structure closed inside an open element: the element's ENDEL once
	// committed it to a nil structure and panicked.
	if _, err := Parse(bytes.NewReader(openElementStream(t))); err == nil {
		t.Fatal("ENDSTR inside an open element must fail")
	}
}

// openElementStream is HEADER, BGNLIB, LIBNAME, UNITS, BGNSTR, STRNAME,
// PATH, ENDSTR, XY (0,0,10,0), ENDEL: a PATH left open across its
// structure's ENDSTR.
func openElementStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw := NewRecordWriter(&buf)
	for _, f := range []func() error{
		func() error { return rw.WriteInt16s(RecHeader, 600) },
		func() error { return rw.WriteInt16s(RecBgnLib, make([]int16, 12)...) },
		func() error { return rw.WriteASCII(RecLibName, "L") },
		func() error { return rw.WriteReals(RecUnits, 1e-3, 1e-9) },
		func() error { return rw.WriteInt16s(RecBgnStr, make([]int16, 12)...) },
		func() error { return rw.WriteASCII(RecStrName, "S") },
		func() error { return rw.WriteEmpty(RecPath) },
		func() error { return rw.WriteEmpty(RecEndStr) },
		func() error { return rw.WriteInt32s(RecXY, 0, 0, 10, 0) },
		func() error { return rw.WriteEmpty(RecEndEl) },
	} {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSegmentRects(t *testing.T) {
	p := Path{Layer: 1, Width: 10, Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 50)}}
	rects, err := SegmentRects(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 2 {
		t.Fatalf("segments: %d", len(rects))
	}
	if rects[0] != (geom.Rect{X0: 0, Y0: -5, X1: 100, Y1: 5}) {
		t.Fatalf("horizontal segment rect: %v", rects[0])
	}
	if rects[1] != (geom.Rect{X0: 95, Y0: 0, X1: 105, Y1: 50}) {
		t.Fatalf("vertical segment rect: %v", rects[1])
	}
}

func TestSegmentRectsPathtype2(t *testing.T) {
	p := Path{Layer: 1, Width: 10, Pathtype: 2, Pts: []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0)}}
	rects, err := SegmentRects(p)
	if err != nil {
		t.Fatal(err)
	}
	if rects[0] != (geom.Rect{X0: -5, Y0: -5, X1: 105, Y1: 5}) {
		t.Fatalf("extended segment rect: %v", rects[0])
	}
}

func TestQuickLibraryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lib := &Library{Name: "RAND", UserUnit: 1e-3, MeterUnit: 1e-9}
		s := &Structure{Name: "S"}
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			x := int32(rng.Intn(10000) - 5000)
			y := int32(rng.Intn(10000) - 5000)
			w := int32(1 + rng.Intn(500))
			h := int32(1 + rng.Intn(500))
			s.Boundaries = append(s.Boundaries, Boundary{
				Layer: int16(rng.Intn(4)),
				Pts:   []geom.Point{geom.Pt(x, y), geom.Pt(x+w, y), geom.Pt(x+w, y+h), geom.Pt(x, y+h)},
			})
		}
		lib.Structures = append(lib.Structures, s)
		var buf bytes.Buffer
		if err := lib.Write(&buf); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Structures[0].Boundaries, s.Boundaries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLibraryWrite(b *testing.B) {
	lib := testLibrary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := lib.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLibraryParse(b *testing.B) {
	lib := testLibrary()
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
