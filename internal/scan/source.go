package scan

import (
	"fmt"

	"hotspot/internal/gds"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
)

// Source supplies the geometry under scan, one halo window at a time, so
// the pipeline never needs the whole chip resident unless the source
// already holds it.
type Source interface {
	// Name identifies the source (library or benchmark name).
	Name() string
	// Bounds is the full extent to partition into tiles.
	Bounds() geom.Rect
	// Window returns a layout covering at least the given window. The
	// result may be shared across calls (an in-memory source returns the
	// whole layout) and must be safe for concurrent window queries.
	Window(window geom.Rect) (*layout.Layout, error)
	// EstimateRects cheaply estimates the rectangle count inside window
	// for the memory budget, or returns a negative value when estimating
	// requires loading the window; the pipeline then re-checks the loaded
	// layout's true count.
	EstimateRects(window geom.Rect) int
}

// LayoutSource adapts an in-memory layout: windows share the layout (its
// grid index already serves concurrent range queries), and estimates are
// exact grid counts.
type LayoutSource struct {
	l     *layout.Layout
	layer layout.Layer
}

// NewLayoutSource wraps an already-flat in-memory layout.
func NewLayoutSource(l *layout.Layout, layer layout.Layer) *LayoutSource {
	return &LayoutSource{l: l, layer: layer}
}

func (s *LayoutSource) Name() string { return s.l.Name }

func (s *LayoutSource) Bounds() geom.Rect { return s.l.Bounds }

func (s *LayoutSource) Window(geom.Rect) (*layout.Layout, error) { return s.l, nil }

func (s *LayoutSource) EstimateRects(window geom.Rect) int {
	return len(s.l.Query(s.layer, window, nil))
}

// GDSSource flattens a GDSII library one halo window at a time, so a chip
// whose flat form would not fit in memory scans with peak residency bounded
// by the densest tile window. Polygons are flattened whole (never clipped),
// which keeps the rectangle decomposition — and therefore every dissection
// anchor — identical to a whole-chip flatten.
type GDSSource struct {
	lib    *gds.Library
	top    string
	bounds geom.Rect
}

// NewGDSSource wraps a parsed GDSII library rooted at the named top
// structure. The full extent is computed up front (cheap: hierarchy-sized,
// not instance-sized) to drive tile partitioning.
func NewGDSSource(lib *gds.Library, top string) (*GDSSource, error) {
	bounds, err := lib.BBox(top)
	if err != nil {
		return nil, err
	}
	return &GDSSource{lib: lib, top: top, bounds: bounds}, nil
}

func (s *GDSSource) Name() string { return s.lib.Name + "/" + s.top }

func (s *GDSSource) Bounds() geom.Rect { return s.bounds }

// Window flattens only the hierarchy subtrees overlapping the window into
// a fresh layout.
func (s *GDSSource) Window(window geom.Rect) (*layout.Layout, error) {
	fps, err := s.lib.FlattenWindow(s.top, window)
	if err != nil {
		return nil, err
	}
	l := layout.New(s.lib.Name)
	for _, fp := range fps {
		if err := l.AddPolygon(fp.Layer, geom.Polygon{Pts: fp.Pts}); err != nil {
			return nil, fmt.Errorf("scan: layer %d polygon: %w", fp.Layer, err)
		}
	}
	return l, nil
}

// EstimateRects reports that estimating requires loading: the pipeline
// applies the memory budget to the loaded window's true rect count instead.
func (s *GDSSource) EstimateRects(geom.Rect) int { return -1 }
