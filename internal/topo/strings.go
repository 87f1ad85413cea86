// Package topo implements the two-level topological classification of
// §III-B: string-based classification via four directional strings (with
// the composite-string matching of Theorem 1 over the eight orientations)
// and density-based classification via pixel-density clustering.
package topo

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"hotspot/internal/geom"
)

// StringSet holds the four directional strings of a core pattern. Each
// string is a sequence of per-slice codes:
//
//   - the bottom string slices the pattern vertically along polygon edges,
//     slices ordered left to right, each slice scanned bottom to top;
//   - the right string slices horizontally, slices bottom to top, each
//     scanned right to left;
//   - the top string slices vertically, slices right to left, each scanned
//     top to bottom;
//   - the left string slices horizontally, slices top to bottom, each
//     scanned left to right;
//
// so that bottom-right-top-left is a counterclockwise perimeter walk.
// A slice code is a bit string (stored in a uint64): a leading 1 marker
// followed by one bit per maximal region along the scan — 1 for a polygon
// block, 0 for a space — matching the paper's example where a slice that is
// a single full-height block codes as 11b = 3 and a space/block/space slice
// codes as 1010b = 10.
type StringSet struct {
	Bottom, Right, Top, Left []uint64
}

// ComputeStrings builds the directional strings for the given geometry
// within the window. The geometry is clipped to the window; overlapping
// rectangles are handled (regions are computed from interval unions).
func ComputeStrings(rects []geom.Rect, window geom.Rect) StringSet {
	clipped := clipAll(rects, window)
	v, _ := sliceCodes(clipped, window, true)  // per vertical slab, bottom-up codes
	h, _ := sliceCodes(clipped, window, false) // per horizontal slab, left-right codes
	var s StringSet
	s.fill(v, h)
	return s
}

// fill sets the four side strings from the vertical slab codes v (left to
// right, scanned bottom-up) and the horizontal slab codes h (bottom to top,
// scanned left to right), reusing the sides' backing arrays.
func (s *StringSet) fill(v, h []uint64) {
	n, m := len(v), len(h)
	s.Bottom = resize(s.Bottom, n)
	s.Top = resize(s.Top, n)
	s.Right = resize(s.Right, m)
	s.Left = resize(s.Left, m)
	for i, c := range v {
		s.Bottom[i] = c           // left to right, scanned bottom-up
		s.Top[n-1-i] = reverse(c) // right to left, scanned top-down
	}
	for i, c := range h {
		s.Right[i] = reverse(c) // bottom to top, scanned right-left
		s.Left[m-1-i] = c       // top to bottom, scanned left-right
	}
}

func resize(v []uint64, n int) []uint64 {
	if cap(v) < n {
		return make([]uint64, n)
	}
	return v[:n]
}

// clipAll clips rects to window, dropping empties.
func clipAll(rects []geom.Rect, window geom.Rect) []geom.Rect {
	out := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// sliceCodes computes per-slab region codes, each slab scanned both ways.
// With vertical=true, slabs are vertical slices bounded by the
// x-coordinates of vertical edges, ordered left to right; fwd scans each
// bottom-up and rev top-down. With vertical=false, slabs are horizontal
// slices bounded by y-coordinates, ordered bottom to top; fwd scans each
// left to right and rev right to left.
func sliceCodes(rects []geom.Rect, window geom.Rect, vertical bool) (fwd, rev []uint64) {
	// Collect slab boundaries: polygon edges only, per the paper; the
	// window edges bound the outermost slabs.
	cuts := make([]geom.Coord, 0, 2*len(rects)+2)
	for _, r := range rects {
		if vertical {
			cuts = append(cuts, r.X0, r.X1)
		} else {
			cuts = append(cuts, r.Y0, r.Y1)
		}
	}
	var lo, hi geom.Coord
	if vertical {
		lo, hi = window.X0, window.X1
	} else {
		lo, hi = window.Y0, window.Y1
	}
	cuts = append(cuts, lo, hi)
	slices.Sort(cuts)
	cuts = uniq(cuts)
	// Trim cuts outside the window (rects are pre-clipped, so none).
	fwd = make([]uint64, 0, len(cuts)-1)
	rev = make([]uint64, 0, len(cuts)-1)
	iv := make([][2]geom.Coord, 0, len(rects))
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a < lo || b > hi || a >= b {
			continue
		}
		var f, r uint64
		f, r, iv = slabCode(rects, window, a, b, vertical, iv[:0])
		fwd = append(fwd, f)
		rev = append(rev, r)
	}
	return fwd, rev
}

func uniq(v []geom.Coord) []geom.Coord {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// slabCode computes the region code of one slab [a, b) scanned both ways
// across it: fwd from the low end (bottom or left), rev from the high end.
// The two are bit-reverses of each other unless the slab has more than 63
// regions, where each keeps only the last 64 regions of its own scan. iv
// is interval scratch, returned for reuse.
func slabCode(rects []geom.Rect, window geom.Rect, a, b geom.Coord, vertical bool, iv [][2]geom.Coord) (fwd, rev uint64, _ [][2]geom.Coord) {
	// Collect the cross intervals of blocks overlapping the slab interior.
	for _, r := range rects {
		if vertical {
			if r.X0 <= a && r.X1 >= b {
				iv = append(iv, [2]geom.Coord{r.Y0, r.Y1})
			}
		} else {
			if r.Y0 <= a && r.Y1 >= b {
				iv = append(iv, [2]geom.Coord{r.X0, r.X1})
			}
		}
	}
	var lo, hi geom.Coord
	if vertical {
		lo, hi = window.Y0, window.Y1
	} else {
		lo, hi = window.X0, window.X1
	}
	merged := mergeIntervals(iv)
	// Walk regions from lo to hi, then from hi to lo: alternating
	// space/block, each code behind a leading marker.
	fwd = 1
	pos := lo
	for _, seg := range merged {
		if seg[0] > pos {
			fwd = fwd<<1 | 0 // space region
		}
		fwd = fwd<<1 | 1 // block region
		pos = seg[1]
	}
	if pos < hi {
		fwd = fwd<<1 | 0
	}
	rev = 1
	pos = hi
	for i := len(merged) - 1; i >= 0; i-- {
		seg := merged[i]
		if seg[1] < pos {
			rev = rev<<1 | 0
		}
		rev = rev<<1 | 1
		pos = seg[0]
	}
	if pos > lo {
		rev = rev<<1 | 0
	}
	return fwd, rev, iv
}

func mergeIntervals(iv [][2]geom.Coord) [][2]geom.Coord {
	if len(iv) == 0 {
		return nil
	}
	slices.SortFunc(iv, func(x, y [2]geom.Coord) int { return cmp.Compare(x[0], y[0]) })
	out := iv[:1]
	for _, seg := range iv[1:] {
		last := &out[len(out)-1]
		if seg[0] <= last[1] {
			if seg[1] > last[1] {
				last[1] = seg[1]
			}
		} else {
			out = append(out, seg)
		}
	}
	return out
}

// reverse reverses the region bits of a slice code, keeping the marker
// (its highest set bit) in front.
func reverse(code uint64) uint64 {
	if code == 0 {
		return 0
	}
	top := 63 - bits.LeadingZeros64(code)
	return 1<<top | bits.Reverse64(code)>>(64-top)
}

// Encode renders the string set as a canonical text key: the four sides
// bottom, right, top, left separated by '|', each a comma-separated list
// of lowercase hexadecimal slice codes.
func (s StringSet) Encode() string {
	return string(s.appendEncoded(nil))
}

// appendEncoded appends Encode's key to buf.
func (s *StringSet) appendEncoded(buf []byte) []byte {
	for i, side := range [4][]uint64{s.Bottom, s.Right, s.Top, s.Left} {
		if i > 0 {
			buf = append(buf, '|')
		}
		for j, c := range side {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, c, 16)
		}
	}
	return buf
}

// CompositeCCW returns the counterclockwise composite string of Theorem 1:
// the four side strings concatenated counterclockwise with the beginning
// side appended again at the end.
func (s StringSet) CompositeCCW() []uint64 {
	var out []uint64
	out = append(out, s.Bottom...)
	out = append(out, s.Right...)
	out = append(out, s.Top...)
	out = append(out, s.Left...)
	out = append(out, s.Bottom...)
	return out
}

// CompositeCW returns the clockwise composite string: the counterclockwise
// composite of the horizontally mirrored pattern. Mirroring about the
// vertical axis reverses the slice order of every side and swaps left and
// right, but leaves each slice's scan direction — and therefore its code —
// unchanged (bottom/top scans are vertical; the left side of the mirror
// scans the original's right side in the right side's own direction).
func (s StringSet) CompositeCW() []uint64 {
	revOrd := func(side []uint64) []uint64 {
		out := make([]uint64, len(side))
		for i, c := range side {
			out[len(side)-1-i] = c
		}
		return out
	}
	var out []uint64
	out = append(out, revOrd(s.Bottom)...)
	out = append(out, revOrd(s.Left)...)
	out = append(out, revOrd(s.Top)...)
	out = append(out, revOrd(s.Right)...)
	out = append(out, revOrd(s.Bottom)...)
	return out
}

// AdjacentPair returns the concatenation of two adjacent side strings in
// counterclockwise order. side is 0..3 for (left,bottom), (bottom,right),
// (right,top), (top,left).
func (s StringSet) AdjacentPair(side int) []uint64 {
	var a, b []uint64
	switch side & 3 {
	case 0:
		a, b = s.Left, s.Bottom
	case 1:
		a, b = s.Bottom, s.Right
	case 2:
		a, b = s.Right, s.Top
	default:
		a, b = s.Top, s.Left
	}
	out := make([]uint64, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	return out
}

// containsSub reports whether needle occurs as a contiguous run in hay.
func containsSub(hay, needle []uint64) bool {
	if len(needle) == 0 {
		return true
	}
	for i := 0; i+len(needle) <= len(hay); i++ {
		ok := true
		for j := range needle {
			if hay[i+j] != needle[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// MatchComposite implements Theorem 1 literally: two core patterns have the
// same topology (up to the eight orientations) iff an adjacent-side pair of
// one occurs in the counterclockwise or clockwise composite string of the
// other. The full-perimeter length must also agree (the substring test
// alone is necessary, not sufficient, for patterns of different size).
func MatchComposite(a, b StringSet) bool {
	if len(a.Bottom)+len(a.Right)+len(a.Top)+len(a.Left) !=
		len(b.Bottom)+len(b.Right)+len(b.Top)+len(b.Left) {
		return false
	}
	ccw := b.CompositeCCW()
	cw := b.CompositeCW()
	for side := 0; side < 4; side++ {
		pair := a.AdjacentPair(side)
		if containsSub(ccw, pair) || containsSub(cw, pair) {
			return true
		}
	}
	return false
}

// CanonicalKey returns a key that is identical for patterns with the same
// topology under any of the eight orientations: the lexicographic minimum
// of the encoded string sets over D8. This is what classification uses for
// exact-topology bucketing; tests check it agrees with MatchComposite.
func CanonicalKey(rects []geom.Rect, window geom.Rect) string {
	key, _ := Canonicalize(rects, window)
	return key
}

// Canonicalize returns both the canonical key and the orientation that
// achieves it; feature extraction normalizes every pattern to this frame
// so that features of same-topology patterns line up slot for slot. Ties
// between orientations with equal string keys — which happen whenever the
// pattern's topology is symmetric — are broken by the exact geometry
// (lexicographically minimal sorted rectangle list), so that every member
// of a pattern's D8 orbit canonicalizes to the same frame.
//
// The slabs of a reoriented pattern are the pattern's own slabs, so each
// slab is scanned once in each direction and every orientation's strings
// are assembled from those codes (see slabCodes.orient); the geometry key
// is built only when two orientations' string keys tie.
func Canonicalize(rects []geom.Rect, window geom.Rect) (string, geom.Orientation) {
	side := window.W()
	if window.H() > side {
		side = window.H()
	}
	norm := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			norm = append(norm, c.Translate(-window.X0, -window.Y0))
		}
	}
	w := geom.Rect{X0: 0, Y0: 0, X1: window.W(), Y1: window.H()}
	var sc slabCodes
	sc.v, sc.vRev = sliceCodes(norm, w, true)
	sc.h, sc.hRev = sliceCodes(norm, w, false)

	var (
		s        StringSet
		v, h     []uint64
		buf      []byte // the best key so far, then the key compared with it
		best     int    // length of the best key at the front of buf
		bestO    geom.Orientation
		bestGeom []byte // bestO's geometry key, once a tie needs it
	)
	geomKey := func(o geom.Orientation) []byte { return appendGeomKey(nil, o.ApplyToRects(norm, side)) }
	for i, o := range geom.AllOrientations {
		v, h = sc.orient(o, v, h)
		s.fill(v, h)
		buf = s.appendEncoded(buf[:best])
		key := buf[best:]
		switch c := bytes.Compare(key, buf[:best]); {
		case i == 0 || c < 0:
			best = copy(buf, key)
			bestO, bestGeom = o, nil
		case c == 0:
			if bestGeom == nil {
				bestGeom = geomKey(bestO)
			}
			if gk := geomKey(o); bytes.Compare(gk, bestGeom) < 0 {
				bestO, bestGeom = o, gk
			}
		}
	}
	return string(buf[:best]), bestO
}

// slabCodes holds a pattern's slab codes scanned both ways: v and vRev for
// the vertical slabs left to right, scanned bottom-up and top-down; h and
// hRev for the horizontal slabs bottom to top, scanned left to right and
// right to left.
type slabCodes struct {
	v, vRev, h, hRev []uint64
}

// orient returns the pattern's vertical and horizontal slab codes (in
// sliceCodes' forward order and scan directions) under orientation o,
// reusing dv and dh. An orientation maps each axis onto an axis, possibly
// negated: a quarter turn makes the vertical slabs horizontal and the
// horizontal ones vertical; negating the axis across the slabs reverses
// their order, and negating the axis along them flips the scan direction
// (so the mirror reverses the vertical slabs' order and flips the
// horizontal slabs' scans).
func (sc *slabCodes) orient(o geom.Orientation, dv, dh []uint64) ([]uint64, []uint64) {
	// Images of the unit x and y vectors under o.
	o0 := o.ApplyToPoint(geom.Point{}, 1)
	ex := o.ApplyToPoint(geom.Point{X: 1}, 1).Sub(o0)
	ey := o.ApplyToPoint(geom.Point{Y: 1}, 1).Sub(o0)
	if ex.X != 0 { // x stays x, y stays y
		dv = pickSlabs(dv, sc.v, sc.vRev, ex.X < 0, ey.Y < 0)
		dh = pickSlabs(dh, sc.h, sc.hRev, ey.Y < 0, ex.X < 0)
	} else { // x becomes y, y becomes x
		dv = pickSlabs(dv, sc.h, sc.hRev, ey.X < 0, ex.Y < 0)
		dh = pickSlabs(dh, sc.v, sc.vRev, ex.Y < 0, ey.X < 0)
	}
	return dv, dh
}

// pickSlabs writes into dst the codes fwd (or rev when flipScan), in
// reverse slab order when flipOrder.
func pickSlabs(dst, fwd, rev []uint64, flipOrder, flipScan bool) []uint64 {
	src := fwd
	if flipScan {
		src = rev
	}
	dst = resize(dst, len(src))
	if !flipOrder {
		copy(dst, src)
		return dst
	}
	for i, c := range src {
		dst[len(src)-1-i] = c
	}
	return dst
}

// appendGeomKey appends a rect set's canonical sortable encoding to dst:
// the rects sorted by (Y0, X0, Y1, X1), each as "x0,y0,x1,y1;" in decimal.
// rects is sorted in place.
func appendGeomKey(dst []byte, rects []geom.Rect) []byte {
	sort.Slice(rects, func(i, j int) bool {
		a, b := rects[i], rects[j]
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
	for _, r := range rects {
		dst = strconv.AppendInt(dst, int64(r.X0), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Y0), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.X1), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Y1), 10)
		dst = append(dst, ';')
	}
	return dst
}
