package topo

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hotspot/internal/geom"
)

// encodeRef is the fmt-based string-set encoder Encode replaced; keys must
// stay byte-identical to it so stored keys keep matching.
func encodeRef(s StringSet) string {
	var b strings.Builder
	for i, side := range [][]uint64{s.Bottom, s.Right, s.Top, s.Left} {
		if i > 0 {
			b.WriteByte('|')
		}
		for j, c := range side {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%x", c)
		}
	}
	return b.String()
}

// reverseRef is the bit-by-bit loop reverse replaced.
func reverseRef(code uint64) uint64 {
	if code == 0 {
		return 0
	}
	top := 63
	for (code>>uint(top))&1 == 0 {
		top--
	}
	out := uint64(1)
	for i := 0; i < top; i++ {
		out = out<<1 | (code>>uint(i))&1
	}
	return out
}

// geomKeyRef is the fmt-based geometry tie-break key appendGeomKey
// replaced.
func geomKeyRef(rects []geom.Rect) string {
	sorted := append([]geom.Rect(nil), rects...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		if a.X0 != b.X0 {
			return a.X0 < b.X0
		}
		if a.Y1 != b.Y1 {
			return a.Y1 < b.Y1
		}
		return a.X1 < b.X1
	})
	var sb strings.Builder
	for _, r := range sorted {
		fmt.Fprintf(&sb, "%d,%d,%d,%d;", r.X0, r.Y0, r.X1, r.Y1)
	}
	return sb.String()
}

// canonicalizeRef is the Canonicalize this package shipped before the
// one-scan derivation: it reorients the geometry eight times, computes each
// orientation's strings directly and encodes every one, building the
// geometry key for every orientation that does not lose on its string key.
func canonicalizeRef(rects []geom.Rect, window geom.Rect) (string, geom.Orientation) {
	side := window.W()
	if window.H() > side {
		side = window.H()
	}
	best := ""
	bestGeom := ""
	var bestO geom.Orientation
	norm := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			norm = append(norm, c.Translate(-window.X0, -window.Y0))
		}
	}
	w := geom.Rect{X0: 0, Y0: 0, X1: window.W(), Y1: window.H()}
	for _, o := range geom.AllOrientations {
		tr := o.ApplyToRects(norm, side)
		tw := o.ApplyToRect(w, side)
		key := encodeRef(ComputeStrings(tr, tw))
		if best != "" && key > best {
			continue
		}
		gk := geomKeyRef(tr)
		if best == "" || key < best || (key == best && gk < bestGeom) {
			best, bestGeom, bestO = key, gk, o
		}
	}
	return best, bestO
}

// canonGeometry decodes a fuzz input into a window and rectangles. The
// first byte picks the window shape (square, wide or tall, at an offset
// origin), whether the pattern is made D8-symmetric (its first four rects
// plus their seven images each, square windows only) and whether a comb of thin bars is
// then added whose slabs cross more than 63 regions; its high bits vary
// the comb. The rest is rectangles, four little-endian uint16 coordinates
// each, snapped to a 40-unit lattice that spills past the window edges,
// so overlapping, abutting and window-clipped rectangles are common.
func canonGeometry(data []byte) ([]geom.Rect, geom.Rect) {
	var mode byte
	if len(data) > 0 {
		mode, data = data[0], data[1:]
	}
	shapes := [...]struct{ w, h geom.Coord }{{1200, 1200}, {1200, 720}, {480, 1200}, {1200, 1200}}
	sh := shapes[mode&3]
	origin := geom.Pt(-3000+geom.Coord(mode&3)*1700, 500)
	window := geom.R(origin.X, origin.Y, origin.X+sh.w, origin.Y+sh.h)

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
		// Horizontal bars 5 units thick every 10 units from the window's
		// bottom edge over part of the width: the vertical slabs through
		// them cross 2*bars regions, starting with a block and ending with
		// a space, so their two scans keep different regions.
		bars := 33 + geom.Coord(mode>>4)
		x0 := geom.Coord(mode>>4) * 13
		for b := geom.Coord(0); b < bars; b++ {
			x1 := sh.w / 2
			if b == bars-1 {
				x1 = sh.w - 100 // one bar reaches further: the slabs differ
			}
			local = append(local, geom.R(x0, 10*b, x1, 10*b+5))
		}
	}
	rects := make([]geom.Rect, len(local))
	for i, r := range local {
		rects[i] = r.Translate(origin.X, origin.Y)
	}
	return rects, window
}

// FuzzCanonicalize checks Canonicalize, which derives all eight
// orientations from one two-way scan of the pattern's slabs, against the
// eight-orientation reference it replaced: the key bytes and the chosen
// orientation must be equal, including on key ties (symmetric topologies),
// on D8-symmetric patterns and on slabs whose codes truncate. Each input is
// checked in all eight orientations, so every orientation in turn is the
// canonical one. It also checks the encoders against their fmt references
// and reverse against its bit-by-bit loop.
func FuzzCanonicalize(f *testing.F) {
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
	// One off-center block: every orientation ties on the string key and
	// the geometry decides.
	f.Add(cat(0, rect(5, 6, 9, 14)))
	// An asymmetric L and a bar, in each window shape.
	for shape := byte(0); shape < 3; shape++ {
		f.Add(cat(shape, rect(3, 3, 6, 20), rect(6, 3, 15, 6), rect(20, 10, 24, 30)))
	}
	// Overlapping, abutting and window-spilling rectangles.
	f.Add(cat(1, rect(0, 0, 36, 4), rect(10, 2, 14, 30), rect(14, 2, 18, 12), rect(30, 30, 36, 36)))
	// D8-symmetric patterns.
	f.Add(cat(4, rect(5, 6, 9, 14)))
	f.Add(cat(4, rect(3, 3, 6, 20), rect(6, 3, 15, 6)))
	// Combs whose slabs cross more than 63 regions.
	f.Add(cat(8))
	f.Add(cat(8|1<<4, rect(25, 2, 28, 33)))
	f.Add(cat(9|2<<4, rect(3, 3, 6, 20)))
	f.Add(cat(10|3<<4, rect(1, 1, 4, 4)))
	f.Add(cat(12, rect(5, 6, 9, 14)))

	f.Fuzz(func(t *testing.T, data []byte) {
		rects, window := canonGeometry(data)
		side := max(window.W(), window.H())
		for _, q := range geom.AllOrientations {
			// Reorient the pattern and its window inside the square at the
			// window's origin.
			at := func(r geom.Rect) geom.Rect {
				r = q.ApplyToRect(r.Translate(-window.X0, -window.Y0), side)
				return r.Translate(window.X0, window.Y0)
			}
			qw := at(window)
			qr := make([]geom.Rect, len(rects))
			for i, r := range rects {
				qr[i] = at(r)
			}
			key, o := Canonicalize(qr, qw)
			wantKey, wantO := canonicalizeRef(qr, qw)
			if key != wantKey || o != wantO {
				t.Fatalf("Canonicalize = %q, %v; reference %q, %v (window %v, rects %v)",
					key, o, wantKey, wantO, qw, qr)
			}
		}
		s := ComputeStrings(rects, window)
		if got, want := s.Encode(), encodeRef(s); got != want {
			t.Fatalf("Encode = %q, fmt reference %q", got, want)
		}
		for _, c := range s.CompositeCCW() {
			if got, want := reverse(c), reverseRef(c); got != want {
				t.Fatalf("reverse(%b) = %b, reference %b", c, got, want)
			}
		}
		if got, want := string(appendGeomKey(nil, append([]geom.Rect(nil), rects...))), geomKeyRef(rects); got != want {
			t.Fatalf("geometry key = %q, fmt reference %q", got, want)
		}
	})
}

// TestCanonicalizeCombTruncates pins that the comb seeds of
// FuzzCanonicalize reach slab codes whose two scans are not bit-reverses
// of each other (more than 63 regions), the case a permutation of one
// orientation's four strings would get wrong.
func TestCanonicalizeCombTruncates(t *testing.T) {
	rects, window := canonGeometry([]byte{8})
	v, vRev := sliceCodes(clipAll(rects, window), window, true)
	for i := range v {
		if reverse(v[i]) != vRev[i] {
			return
		}
	}
	t.Fatal("no vertical slab of the comb truncates")
}
