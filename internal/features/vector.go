package features

import (
	"hotspot/internal/geom"
	"hotspot/internal/topo"
)

// Extractor turns patterns into fixed-length feature vectors in the slot
// layout of one topological cluster. The slots are the rule rectangles of
// the cluster's representative pattern (in canonical orientation), so that
// every pattern of the same topology fills the same slot with the
// corresponding measurement; patterns of different topology (seen during
// evaluation) are aligned greedily by feature kind and position.
//
// Each slot contributes four components (W, H, DX, DY) plus a boundary
// flag; the five nontopological features are appended. This realizes the
// paper's property that "the number of critical features is identical for
// all patterns in a cluster" (§III-C).
type Extractor struct {
	slots []RuleRect
}

// SlotDim is the number of vector components per rule-rectangle slot.
const SlotDim = 5

// NewExtractor builds an extractor from the representative pattern of a
// cluster.
func NewExtractor(repr []geom.Rect, window geom.Rect) *Extractor {
	canon, cw := canonicalize(repr, window)
	return &Extractor{slots: Extract(canon, cw)}
}

// NewExtractorFromSlots rebuilds an extractor from a persisted slot layout.
func NewExtractorFromSlots(slots []RuleRect) *Extractor {
	return &Extractor{slots: append([]RuleRect(nil), slots...)}
}

// Slots returns a copy of the extractor's slot layout (for persistence).
func (e *Extractor) Slots() []RuleRect {
	return append([]RuleRect(nil), e.slots...)
}

// Dim returns the feature-vector length.
func (e *Extractor) Dim() int { return len(e.slots)*SlotDim + NonTopoDim }

// NumSlots returns the number of rule-rectangle slots.
func (e *Extractor) NumSlots() int { return len(e.slots) }

// canonicalize translates the pattern to the origin and applies its
// canonical orientation, returning the transformed rects and window.
func canonicalize(rects []geom.Rect, window geom.Rect) ([]geom.Rect, geom.Rect) {
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
	o := topo.CanonicalOrientation(norm, w)
	return o.ApplyToRects(norm, side), o.ApplyToRect(w, side)
}

// Extracted is a pattern's canonicalized feature material: the rule
// rectangles and nontopological features, computed once and reusable across
// every per-cluster slot layout (evaluation runs a clip against many
// kernels; re-extracting per kernel would dominate runtime).
type Extracted struct {
	Rules []RuleRect
	NT    NonTopo
}

// ExtractAll canonicalizes a pattern and extracts its rules and
// nontopological features once.
func ExtractAll(rects []geom.Rect, window geom.Rect) Extracted {
	canon, cw := canonicalize(rects, window)
	return Extracted{
		Rules: Extract(canon, cw),
		NT:    ComputeNonTopo(canon, cw),
	}
}

// ExtractAllCanonical is ExtractAll plus the pattern's canonical topology
// key, from a single canonicalization pass. Routed evaluation needs both
// the key (for kernel routing) and the extracted features; computing them
// separately would canonicalize the pattern twice.
func ExtractAllCanonical(rects []geom.Rect, window geom.Rect) (Extracted, string) {
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
	key, o := topo.Canonicalize(norm, w)
	canon, cw := o.ApplyToRects(norm, side), o.ApplyToRect(w, side)
	return Extracted{
		Rules: Extract(canon, cw),
		NT:    ComputeNonTopo(canon, cw),
	}, key
}

// Vector extracts the feature vector of a pattern in this extractor's slot
// layout.
func (e *Extractor) Vector(rects []geom.Rect, window geom.Rect) []float64 {
	return e.VectorFrom(ExtractAll(rects, window))
}

// VectorFrom aligns pre-extracted feature material into this extractor's
// slot layout.
func (e *Extractor) VectorFrom(ex Extracted) []float64 {
	out, _ := e.VectorInto(ex, make([]float64, 0, e.Dim()), nil)
	return out
}

// VectorInto is VectorFrom appending into dst (from dst[:0]) and using used
// as the slot-assignment scratch, both grown only when too small. It
// returns the vector and the (possibly grown) scratch for the caller to
// retain; with adequately sized buffers the call performs no allocation.
// The produced vector is identical to VectorFrom's.
func (e *Extractor) VectorInto(ex Extracted, dst []float64, used []bool) ([]float64, []bool) {
	rules := ex.Rules
	out := dst[:0]
	if cap(used) < len(rules) {
		used = make([]bool, len(rules))
	} else {
		used = used[:len(rules)]
		for i := range used {
			used[i] = false
		}
	}
	for _, slot := range e.slots {
		best := -1
		bestCost := int64(-1)
		for i, r := range rules {
			if used[i] || r.Kind != slot.Kind {
				continue
			}
			cost := abs64(int64(r.DX)-int64(slot.DX)) + abs64(int64(r.DY)-int64(slot.DY))
			if best == -1 || cost < bestCost {
				best, bestCost = i, cost
			}
		}
		if best == -1 {
			// Missing feature: zero slot.
			out = append(out, 0, 0, 0, 0, 0)
			continue
		}
		used[best] = true
		r := rules[best]
		b := 0.0
		if r.Boundary {
			b = 1
		}
		out = append(out, float64(r.W), float64(r.H), float64(r.DX), float64(r.DY), b)
	}
	out = appendNT(out, ex.NT)
	return out, used
}

// appendNT appends the nontopological subvector without materializing the
// intermediate slice NonTopo.Vector allocates. The component order matches
// NonTopo.Vector exactly; the density is always the final component.
func appendNT(out []float64, nt NonTopo) []float64 {
	return append(out,
		float64(nt.Corners),
		float64(nt.Touches),
		float64(nt.MinInternal),
		float64(nt.MinExternal),
		nt.Density,
	)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// VectorDirect extracts a feature vector without slot alignment: the
// canonical rules concatenated in order, padded or truncated to dim slots.
// It is used by the single-huge-kernel baseline ("Basic" in Table III) and
// the feedback kernel, which have no per-cluster slot layout.
func VectorDirect(rects []geom.Rect, window geom.Rect, slots int) []float64 {
	return VectorDirectFrom(ExtractAll(rects, window), slots)
}

// VectorDirectFrom is VectorDirect over pre-extracted feature material.
func VectorDirectFrom(ex Extracted, slots int) []float64 {
	return VectorDirectInto(ex, slots, make([]float64, 0, slots*SlotDim+NonTopoDim))
}

// VectorDirectInto is VectorDirectFrom appending into dst (from dst[:0]),
// allocating only when dst lacks capacity. The produced vector is identical
// to VectorDirectFrom's.
func VectorDirectInto(ex Extracted, slots int, dst []float64) []float64 {
	rules := ex.Rules
	out := dst[:0]
	for i := 0; i < slots; i++ {
		if i < len(rules) {
			r := rules[i]
			b := 0.0
			if r.Boundary {
				b = 1
			}
			out = append(out, float64(r.W), float64(r.H), float64(r.DX), float64(r.DY), b)
		} else {
			out = append(out, 0, 0, 0, 0, 0)
		}
	}
	out = appendNT(out, ex.NT)
	return out
}
