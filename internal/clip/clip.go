// Package clip defines the layout-clip model of the ICCAD-2012 contest
// formulation (a core window carrying the significant pattern plus an ambit
// ring of context) and implements the paper's density-based layout clip
// extraction (§III-E) together with the window-sliding baseline it is
// compared against (Table V).
package clip

import (
	"fmt"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// Label classifies a training pattern.
type Label int8

// Pattern labels.
const (
	NonHotspot Label = -1
	Hotspot    Label = +1
)

// String implements fmt.Stringer.
func (l Label) String() string {
	if l == Hotspot {
		return "hotspot"
	}
	return "non-hotspot"
}

// Spec fixes the clip geometry. The contest uses a 1.2 x 1.2 um core inside
// a 4.8 x 4.8 um clip.
type Spec struct {
	// CoreSide is the side length of the core window in dbu.
	CoreSide geom.Coord
	// ClipSide is the side length of the full clip window in dbu.
	ClipSide geom.Coord
}

// DefaultSpec is the ICCAD-2012 contest clip geometry (dbu = nm).
var DefaultSpec = Spec{CoreSide: 1200, ClipSide: 4800}

// Ambit returns the width of the ambit ring around the core.
func (s Spec) Ambit() geom.Coord { return (s.ClipSide - s.CoreSide) / 2 }

// Validate checks the spec is usable.
func (s Spec) Validate() error {
	if s.CoreSide <= 0 || s.ClipSide < s.CoreSide {
		return fmt.Errorf("clip: invalid spec %+v", s)
	}
	if (s.ClipSide-s.CoreSide)%2 != 0 {
		return fmt.Errorf("clip: ambit not integral for spec %+v", s)
	}
	return nil
}

// WindowFor returns the clip window whose core's bottom-left corner is at p.
func (s Spec) WindowFor(p geom.Point) geom.Rect {
	a := s.Ambit()
	return geom.Rect{
		X0: p.X - a, Y0: p.Y - a,
		X1: p.X + s.CoreSide + a, Y1: p.Y + s.CoreSide + a,
	}
}

// CoreFor returns the core window whose bottom-left corner is at p.
func (s Spec) CoreFor(p geom.Point) geom.Rect {
	return geom.Rect{X0: p.X, Y0: p.Y, X1: p.X + s.CoreSide, Y1: p.Y + s.CoreSide}
}

// Pattern is one layout clip: a window of geometry with a designated core.
// Training patterns carry a label; extracted evaluation clips carry
// Label == 0 until classified.
type Pattern struct {
	// Window is the clip extent in layout coordinates.
	Window geom.Rect
	// Core is the central core region.
	Core geom.Rect
	// Rects is the layer geometry clipped to Window, in layout coordinates.
	Rects []geom.Rect
	// Label is the known or predicted class.
	Label Label
}

// CoreRects returns the geometry clipped to the core region.
func (p *Pattern) CoreRects() []geom.Rect {
	return p.AppendCoreRects(nil)
}

// AppendCoreRects appends the geometry clipped to the core region onto dst
// (from dst[:0]) and returns it — the allocation-free form of CoreRects for
// callers that reuse a buffer across clips.
func (p *Pattern) AppendCoreRects(dst []geom.Rect) []geom.Rect {
	out := dst[:0]
	for _, r := range p.Rects {
		c := r.Intersect(p.Core)
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// Shifted returns a copy of the pattern whose core is moved by (dx, dy)
// while the geometry stays put — the data-shifting upsampling of §III-D3.
// The window moves with the core; geometry is re-clipped to the new window.
func (p *Pattern) Shifted(dx, dy geom.Coord, all []geom.Rect) *Pattern {
	out := &Pattern{
		Window: p.Window.Translate(dx, dy),
		Core:   p.Core.Translate(dx, dy),
		Label:  p.Label,
	}
	src := all
	if src == nil {
		src = p.Rects
	}
	for _, r := range src {
		c := r.Intersect(out.Window)
		if !c.Empty() {
			out.Rects = append(out.Rects, c)
		}
	}
	return out
}

// FromLayout materializes a pattern at core origin p from layout geometry.
func FromLayout(l *layout.Layout, layer layout.Layer, spec Spec, at geom.Point, label Label) *Pattern {
	p := &Pattern{}
	FromLayoutInto(p, l, layer, spec, at, label)
	return p
}

// FromLayoutInto is FromLayout materializing into an existing pattern,
// reusing p.Rects' capacity — the hot evaluation loops rebuild the same
// pattern slots chunk after chunk instead of allocating fresh ones. The
// resulting pattern is identical to FromLayout's.
func FromLayoutInto(p *Pattern, l *layout.Layout, layer layout.Layer, spec Spec, at geom.Point, label Label) {
	p.Window = spec.WindowFor(at)
	p.Core = spec.CoreFor(at)
	p.Rects = l.QueryClipped(layer, p.Window, p.Rects[:0])
	p.Label = label
}
