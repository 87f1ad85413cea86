package clip

import (
	"context"
	"sort"
	"time"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/topo"
	"hotspot/internal/workerpanic"
)

// Requirements are the user-specified polygon-distribution filters of
// §III-E: a candidate clip is kept only when its polygon density, polygon
// count, and boundary distances meet them.
type Requirements struct {
	// MinDensity is the minimum core polygon density.
	MinDensity float64
	// MaxDensity is the maximum core polygon density (<= 0 disables).
	MaxDensity float64
	// MinPolyCount is the minimum number of geometry rectangles in the core.
	MinPolyCount int
	// MaxBorderDist is the maximum allowed distance between the clip
	// boundary and the bounding box of the geometry inside the clip
	// (the four arrows of Fig. 11(b)); <= 0 disables the check.
	MaxBorderDist geom.Coord
	// SnapGrid deduplicates candidates that fall in the same
	// SnapGrid x SnapGrid cell AND whose cores have the same canonical
	// topology (the candidate with the lexicographically smallest (y, x)
	// anchor wins, so the kept set is independent of enumeration order,
	// band partitioning, and tiling). Dense wire arrays otherwise anchor
	// one near-identical clip per dissected piece; snapping keeps one per
	// local topology, so a motif anchored beside background routing is
	// never merged into a routing clip. Every polygon remains covered by
	// at least one clip window because the kept anchor is within SnapGrid
	// (< core side) of each merged one. <= 0 disables.
	SnapGrid geom.Coord
	// SnapBase is the origin of the snap-cell grid. Detection pipelines
	// set it to the layout's bottom-left bound so the kept candidate set
	// is equivariant under rigid layout translation (an absolute-origin
	// grid re-buckets anchors near cell boundaries when the layout
	// shifts). All tiles of one scan must share the same base for seam
	// deduplication to reproduce the monolithic result.
	SnapBase geom.Point
}

// DefaultRequirements mirrors the paper's §V parameters: a 1440 nm maximum
// boundary distance and a non-empty core.
var DefaultRequirements = Requirements{
	MinDensity:    0.02,
	MaxDensity:    0,
	MinPolyCount:  1,
	MaxBorderDist: 1440,
	SnapGrid:      600, // half the core side
}

// Candidate is a clip position produced by extraction, before geometry
// materialization.
type Candidate struct {
	// At is the core's bottom-left corner.
	At geom.Point
}

// Extract runs the paper's density-based clip extraction over one layer:
// every geometry rectangle is dissected into pieces no larger than the core
// side; a candidate core is anchored at each piece's bottom-left corner; the
// candidate is kept when the polygon distribution inside the clip meets the
// requirements. Duplicate core positions are merged.
func Extract(l *layout.Layout, layer layout.Layer, spec Spec, req Requirements) []Candidate {
	return ExtractParallelObs(l, layer, spec, req, 1, nil)
}

// Key identifies a candidate's (snap cell, core topology) deduplication
// equivalence class. Candidates sharing a Key are near-identical clips of
// which extraction keeps exactly one. Keys are comparable and serialize to
// JSON, so tiled scans can journal them and deduplicate across tile seams.
type Key struct {
	// Cell is the SnapGrid cell of the anchor (the exact anchor when
	// snapping is disabled).
	Cell geom.Point `json:"cell"`
	// Topo is the core's canonical topology string; empty when snapping
	// is disabled.
	Topo string `json:"topo,omitempty"`
}

// KeyFor computes a candidate's dedup key. With SnapGrid disabled the key
// is the exact anchor.
func KeyFor(l *layout.Layout, layer layout.Layer, spec Spec, at geom.Point, req Requirements) Key {
	if req.SnapGrid <= 0 {
		return Key{Cell: at}
	}
	core := spec.CoreFor(at)
	rects := l.QueryClipped(layer, core, nil)
	return Key{
		Cell: geom.Pt(floorDiv(at.X-req.SnapBase.X, req.SnapGrid),
			floorDiv(at.Y-req.SnapBase.Y, req.SnapGrid)),
		Topo: topo.CanonicalKey(rects, core),
	}
}

// Keyed is a qualifying candidate together with its dedup key.
type Keyed struct {
	At  geom.Point `json:"at"`
	Key Key        `json:"key"`
}

// DedupCanonical sorts keyed candidates by anchor (y, then x) and keeps
// the first of each key class — the canonical winner. Because the winner
// is the class's coordinate-minimal anchor, deduplication is associative:
// deduplicating per tile (or per band) and then once more across the union
// yields the same set as one global pass, which is what makes
// seam-straddling duplicates in tiled scans collapse to the monolithic
// result.
func DedupCanonical(kcs []Keyed) []Keyed {
	sort.Slice(kcs, func(i, j int) bool {
		if kcs[i].At.Y != kcs[j].At.Y {
			return kcs[i].At.Y < kcs[j].At.Y
		}
		return kcs[i].At.X < kcs[j].At.X
	})
	seen := make(map[Key]bool, len(kcs))
	out := kcs[:0]
	for _, kc := range kcs {
		if seen[kc.Key] {
			continue
		}
		seen[kc.Key] = true
		out = append(out, kc)
	}
	return out
}

func floorDiv(a, b geom.Coord) geom.Coord {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ExtractParallel is Extract fanned out over horizontal bands of the
// layout, the multithreaded clip extraction of §III-G. workers <= 1 falls
// back to the serial path.
func ExtractParallel(l *layout.Layout, layer layout.Layer, spec Spec, req Requirements, workers int) []Candidate {
	return ExtractParallelObs(l, layer, spec, req, workers, nil)
}

// ExtractParallelObs is ExtractParallel with metrics: when reg is non-nil
// it records the dissected piece count, the candidates kept before and
// after topology deduplication, and the extraction wall time. Counts are
// accumulated per band outside the per-piece loop, so instrumentation does
// not slow the scan, and a nil reg is exactly ExtractParallel.
func ExtractParallelObs(l *layout.Layout, layer layout.Layer, spec Spec, req Requirements, workers int, reg *obs.Registry) []Candidate {
	out, _ := ExtractContext(context.Background(), l, layer, spec, req, workers, reg)
	return out
}

// ExtractContext is ExtractParallelObs with cooperative cancellation: every
// worker checks ctx once per ctxCheckPieces pieces, and a cancelled
// extraction returns ctx's error and no candidates. Pieces are enumerated
// from each rectangle as they are evaluated, never collected first, so a
// rectangle far larger than a clip costs time, which ctx bounds, rather
// than memory.
func ExtractContext(ctx context.Context, l *layout.Layout, layer layout.Layer, spec Spec, req Requirements, workers int, reg *obs.Registry) ([]Candidate, error) {
	start := time.Now()
	out, err := extractParallel(ctx, l, layer, spec, req, workers, reg)
	if err != nil {
		return nil, err
	}
	if reg != nil {
		reg.Counter("clip.candidates").Add(int64(len(out)))
		reg.Histogram("clip.extract_seconds").ObserveDuration(time.Since(start))
	}
	return out, nil
}

// ctxCheckPieces is how many pieces an extraction worker evaluates between
// context checks: a few milliseconds of work.
const ctxCheckPieces = 256

// extractParallel splits the layer's pieces, numbered in dissection order
// (rectangle by rectangle, each row-major from its bottom-left corner),
// into one contiguous range per worker. A panic in a worker is raised
// again on the caller's goroutine as a *workerpanic.Error once every
// worker has returned.
func extractParallel(ctx context.Context, l *layout.Layout, layer layout.Layer, spec Spec, req Requirements, workers int, reg *obs.Registry) ([]Candidate, error) {
	rects := l.Rects(layer)
	// ends[i] counts the pieces of rects[:i+1].
	ends := make([]int64, len(rects))
	var total int64
	for i, r := range rects {
		nx, ny := pieceGrid(r, spec.CoreSide)
		total += nx * ny
		ends[i] = total
	}
	reg.Counter("clip.pieces").Add(total)
	workers = max(workers, 1)
	chunk := max((total+int64(workers)-1)/int64(workers), 1)
	parts := (total + chunk - 1) / chunk
	results := make([][]Keyed, parts)
	errs := make([]error, parts)
	var g workerpanic.Group
	for slot := int64(0); slot < parts; slot++ {
		g.Go(func() {
			results[slot], errs[slot] = keyPieces(ctx, l, layer, spec, req, rects, ends, slot*chunk, min((slot+1)*chunk, total))
		})
	}
	g.Wait()
	var kcs []Keyed
	for slot, cs := range results {
		if errs[slot] != nil {
			return nil, errs[slot]
		}
		kcs = append(kcs, cs...)
	}
	reg.Counter("clip.candidates_prededup").Add(int64(len(kcs)))
	return anchorsOf(DedupCanonical(kcs)), nil
}

// keyPieces evaluates the pieces numbered [lo, hi) (see extractParallel)
// and keys the qualifying ones.
func keyPieces(ctx context.Context, l *layout.Layout, layer layout.Layer, spec Spec, req Requirements, rects []geom.Rect, ends []int64, lo, hi int64) ([]Keyed, error) {
	var cs []Keyed
	side := int64(max(spec.CoreSide, 0))
	i := sort.Search(len(ends), func(i int) bool { return ends[i] > lo })
	for k := lo; k < hi; i++ {
		r := rects[i]
		nx, ny := pieceGrid(r, spec.CoreSide)
		first := ends[i] - nx*ny
		for ; k < hi && k < ends[i]; k++ {
			if (k-lo)%ctxCheckPieces == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			j := k - first
			at := geom.Pt(r.X0+geom.Coord(j%nx*side), r.Y0+geom.Coord(j/nx*side))
			if MeetsRequirements(l, layer, spec, at, req) {
				cs = append(cs, Keyed{At: at, Key: KeyFor(l, layer, spec, at, req)})
			}
		}
	}
	return cs, nil
}

// anchorsOf projects deduplicated keyed candidates onto plain candidates.
func anchorsOf(kcs []Keyed) []Candidate {
	if len(kcs) == 0 {
		return nil
	}
	out := make([]Candidate, len(kcs))
	for i, kc := range kcs {
		out[i] = Candidate{At: kc.At}
	}
	return out
}

// ExtractTile enumerates the qualifying keyed candidates whose dissection
// anchors fall inside region (half-open on both axes), deduplicated
// canonically within the region. Anchors are the same as a whole-layout
// Extract would produce — dissection uses each rectangle's true extent, so
// tiling never shifts the piece grid — and requirement checks query up to
// spec.CoreSide+spec.Ambit() beyond the region; l must contain every
// rectangle intersecting that halo for results to match the monolithic
// path. Because DedupCanonical is associative, concatenating the per-tile
// results of a partition of the layout bounds and deduplicating once more
// reproduces Extract exactly. ctx is checked once per ctxCheckPieces
// anchors; a cancelled extraction returns ctx's error.
func ExtractTile(ctx context.Context, l *layout.Layout, layer layout.Layer, spec Spec, req Requirements, region geom.Rect) ([]Keyed, error) {
	var kcs []Keyed
	var err error
	n := 0
	for _, r := range l.Query(layer, region, nil) {
		forEachAnchorIn(r, spec.CoreSide, region, func(at geom.Point) bool {
			if n%ctxCheckPieces == 0 {
				if err = ctx.Err(); err != nil {
					return false
				}
			}
			n++
			if MeetsRequirements(l, layer, spec, at, req) {
				kcs = append(kcs, Keyed{At: at, Key: KeyFor(l, layer, spec, at, req)})
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return DedupCanonical(kcs), nil
}

// forEachAnchorIn visits the dissection anchors of r (the bottom-left
// corners of its maxSide-bounded pieces, see pieceGrid) that fall inside
// region, without materializing pieces outside it, until f returns false.
// Anchors step in int64, so a rectangle ending near MaxInt32 cannot wrap
// the walk.
func forEachAnchorIn(r geom.Rect, maxSide geom.Coord, region geom.Rect, f func(geom.Point) bool) {
	if maxSide <= 0 {
		if region.Contains(geom.Pt(r.X0, r.Y0)) {
			f(geom.Pt(r.X0, r.Y0))
		}
		return
	}
	side := int64(maxSide)
	startAfter := func(r0, lo geom.Coord) int64 {
		if lo <= r0 {
			return int64(r0)
		}
		// First anchor r0 + k*maxSide >= lo.
		k := (int64(lo) - int64(r0) + side - 1) / side
		return int64(r0) + k*side
	}
	yEnd, xEnd := int64(min(r.Y1, region.Y1)), int64(min(r.X1, region.X1))
	for y := startAfter(r.Y0, region.Y0); y < yEnd; y += side {
		for x := startAfter(r.X0, region.X0); x < xEnd; x += side {
			if !f(geom.Pt(geom.Coord(x), geom.Coord(y))) {
				return
			}
		}
	}
}

// pieceGrid returns the columns and rows of the pieces, no larger than
// maxSide on either side, that dissection cuts r into (Fig. 11(a)): one
// per maxSide step from the bottom-left corner, the last of each row and
// column clipped to r. Piece k, row-major, is anchored at
// (r.X0 + (k%nx)*maxSide, r.Y0 + (k/nx)*maxSide). maxSide <= 0 keeps r
// whole.
func pieceGrid(r geom.Rect, maxSide geom.Coord) (nx, ny int64) {
	if maxSide <= 0 && !r.Empty() {
		return 1, 1
	}
	return r.Cells(maxSide)
}

// MeetsRequirements evaluates the polygon-distribution filters for the clip
// whose core origin is at.
func MeetsRequirements(l *layout.Layout, layer layout.Layer, spec Spec, at geom.Point, req Requirements) bool {
	core := spec.CoreFor(at)
	window := spec.WindowFor(at)
	coreRects := l.QueryClipped(layer, core, nil)
	if len(coreRects) < req.MinPolyCount {
		return false
	}
	if req.MinDensity > 0 || req.MaxDensity > 0 {
		d := float64(geom.TotalArea(coreRects)) / float64(core.Area())
		if req.MinDensity > 0 && d < req.MinDensity {
			return false
		}
		if req.MaxDensity > 0 && d > req.MaxDensity {
			return false
		}
	}
	if req.MaxBorderDist > 0 {
		clipRects := l.QueryClipped(layer, window, nil)
		bb := geom.BoundingBox(clipRects)
		if bb.Empty() {
			return false
		}
		if bb.X0-window.X0 > req.MaxBorderDist ||
			bb.Y0-window.Y0 > req.MaxBorderDist ||
			window.X1-bb.X1 > req.MaxBorderDist ||
			window.Y1-bb.Y1 > req.MaxBorderDist {
			return false
		}
	}
	return true
}

// Materialize converts candidates into full patterns with geometry.
func Materialize(l *layout.Layout, layer layout.Layer, spec Spec, cs []Candidate) []*Pattern {
	out := make([]*Pattern, len(cs))
	for i, c := range cs {
		out[i] = FromLayout(l, layer, spec, c.At, 0)
	}
	return out
}

// WindowScanCount returns the clip count of the window-sliding baseline
// with the given overlap fraction (0.5 in Table V): cores of side
// spec.CoreSide stepped by CoreSide*(1-overlap) across the layout bounds.
func WindowScanCount(bounds geom.Rect, spec Spec, overlap float64) int {
	step := geom.Coord(float64(spec.CoreSide) * (1 - overlap))
	if step <= 0 {
		step = 1
	}
	nx := int(bounds.W() / step)
	ny := int(bounds.H() / step)
	if nx < 1 {
		nx = 1
	}
	ny = max(ny, 1)
	return nx * ny
}

// WindowScan enumerates the window-sliding baseline candidate positions.
func WindowScan(bounds geom.Rect, spec Spec, overlap float64) []Candidate {
	step := geom.Coord(float64(spec.CoreSide) * (1 - overlap))
	if step <= 0 {
		step = 1
	}
	var out []Candidate
	for y := bounds.Y0; y+spec.CoreSide <= bounds.Y1; y += step {
		for x := bounds.X0; x+spec.CoreSide <= bounds.X1; x += step {
			out = append(out, Candidate{At: geom.Pt(x, y)})
		}
	}
	return out
}
