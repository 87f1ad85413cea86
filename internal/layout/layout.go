// Package layout provides the flat layout model the hotspot framework
// operates on: per-layer rectangle soups with a uniform-grid spatial index
// for fast window queries, plus conversion to and from the GDSII model.
//
// All geometry is in database units (1 dbu = 1 nm).
package layout

import (
	"fmt"
	"sort"
	"sync"

	"hotspot/internal/gds"
	"hotspot/internal/geom"
)

// Layer is a GDSII layer number.
type Layer = int16

// Layout is a flat multi-layer layout.
type Layout struct {
	// Name identifies the layout (library or benchmark name).
	Name string
	// Bounds is the design extent. It is maintained by AddRect/AddPolygon
	// and can be enlarged explicitly for designs with empty margins.
	Bounds geom.Rect

	layers map[Layer]*layerData
}

type layerData struct {
	rects []geom.Rect

	mu    sync.Mutex
	index *Grid
	dirty bool
}

func (ld *layerData) grid() *Grid {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if ld.dirty || ld.index == nil {
		ld.index = NewGrid(ld.rects)
		ld.dirty = false
	}
	return ld.index
}

// New creates an empty layout.
func New(name string) *Layout {
	return &Layout{Name: name, layers: make(map[Layer]*layerData)}
}

// Layers returns the layer numbers present, sorted ascending.
func (l *Layout) Layers() []Layer {
	out := make([]Layer, 0, len(l.layers))
	for id := range l.layers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddRect adds one rectangle to a layer. Empty rectangles are ignored.
func (l *Layout) AddRect(layer Layer, r geom.Rect) {
	if r.Empty() {
		return
	}
	ld := l.layers[layer]
	if ld == nil {
		ld = &layerData{}
		l.layers[layer] = ld
	}
	ld.rects = append(ld.rects, r)
	ld.dirty = true
	l.Bounds = l.Bounds.Union(r)
}

// AddPolygon decomposes a rectilinear polygon into rectangles and adds them.
func (l *Layout) AddPolygon(layer Layer, p geom.Polygon) error {
	rects, err := p.Rects()
	if err != nil {
		return err
	}
	for _, r := range rects {
		l.AddRect(layer, r)
	}
	return nil
}

// Rects returns the rectangles of a layer. The returned slice is shared;
// callers must not modify it.
func (l *Layout) Rects(layer Layer) []geom.Rect {
	ld := l.layers[layer]
	if ld == nil {
		return nil
	}
	return ld.rects
}

// GeometryBounds returns the bounding box of the geometry across all
// layers. Unlike Bounds — which can be enlarged explicitly to a design
// extent with empty margins — this is a pure function of the added
// rectangles, so two layouts holding the same geometry agree on it even
// when one lost its design frame (e.g. a layout rebuilt from a wire-format
// rectangle soup). Detection anchors its snap-dedup grid here for exactly
// that reason.
func (l *Layout) GeometryBounds() geom.Rect {
	var bb geom.Rect
	for _, ld := range l.layers {
		for _, r := range ld.rects {
			bb = bb.Union(r)
		}
	}
	return bb
}

// NumRects returns the total rectangle count across all layers.
func (l *Layout) NumRects() int {
	n := 0
	for _, ld := range l.layers {
		n += len(ld.rects)
	}
	return n
}

// Area returns the design-extent area in dbu^2.
func (l *Layout) Area() int64 { return l.Bounds.Area() }

// PolygonArea returns the union area of a layer's rectangles.
func (l *Layout) PolygonArea(layer Layer) int64 {
	return geom.TotalArea(l.Rects(layer))
}

// Query appends to dst the rectangles of layer that overlap window, and
// returns the extended slice. The layer's spatial index is built lazily and
// reused until the layer changes. Query is safe for concurrent use as long
// as no rectangles are added concurrently.
func (l *Layout) Query(layer Layer, window geom.Rect, dst []geom.Rect) []geom.Rect {
	ld := l.layers[layer]
	if ld == nil {
		return dst
	}
	return ld.grid().Query(window, dst)
}

// QueryClipped is Query with every result intersected against the window.
func (l *Layout) QueryClipped(layer Layer, window geom.Rect, dst []geom.Rect) []geom.Rect {
	raw := l.Query(layer, window, dst[:0])
	out := raw[:0]
	for _, r := range raw {
		c := r.Intersect(window)
		if !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}

// FromGDS flattens the given top structure of a parsed GDSII library into a
// Layout. Boundary polygons are decomposed into rectangles; paths become
// per-segment rectangles.
func FromGDS(lib *gds.Library, top string) (*Layout, error) {
	flat, err := lib.Flatten(top)
	if err != nil {
		return nil, err
	}
	l := New(lib.Name)
	for _, fp := range flat {
		poly := geom.Polygon{Pts: fp.Pts}
		if err := l.AddPolygon(fp.Layer, poly); err != nil {
			return nil, fmt.Errorf("layout: layer %d polygon: %w", fp.Layer, err)
		}
	}
	return l, nil
}

// ToGDS converts the layout into a single-structure GDSII library, one
// boundary per rectangle.
func (l *Layout) ToGDS(structure string) *gds.Library {
	s := &gds.Structure{Name: structure}
	for _, layer := range l.Layers() {
		for _, r := range l.Rects(layer) {
			s.Boundaries = append(s.Boundaries, gds.Boundary{
				Layer: layer,
				Pts: []geom.Point{
					geom.Pt(r.X0, r.Y0), geom.Pt(r.X1, r.Y0),
					geom.Pt(r.X1, r.Y1), geom.Pt(r.X0, r.Y1),
				},
			})
		}
	}
	return &gds.Library{
		Name:       l.Name,
		UserUnit:   1e-3,
		MeterUnit:  1e-9,
		Structures: []*gds.Structure{s},
	}
}
