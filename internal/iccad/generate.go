package iccad

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/litho"
)

// Benchmark is one generated benchmark: a labelled training set plus a
// testing layout with ground-truth hotspot cores.
type Benchmark struct {
	Name    string
	Process string
	Spec    clip.Spec
	Layer   layout.Layer
	// Train is the labelled training clip set (imbalanced, like the
	// contest's MX_benchmarkN_clip sets).
	Train []*clip.Pattern
	// Test is the testing layout.
	Test *layout.Layout
	// TruthCores are the actual hotspot cores in the testing layout.
	TruthCores []geom.Rect
}

// Config parameterizes one benchmark generation.
type Config struct {
	Name    string
	Process string
	// W, H is the testing layout extent in dbu.
	W, H geom.Coord
	// TestHS is the target number of planted testing hotspots.
	TestHS int
	// TrainHS, TrainNHS are the training set class sizes.
	TrainHS, TrainNHS int
	// FillFactor is the fraction of background blocks that carry routing.
	FillFactor float64
	// Seed makes generation deterministic.
	Seed int64
	// Workers bounds oracle-labelling parallelism (0: GOMAXPROCS).
	Workers int
	// Scale < 1 shrinks the layout extent (linearly) and all counts
	// (by area) for fast tests; 0 means 1.
	Scale float64
}

// Layout construction constants.
const (
	sitePitch  = 5000 // distance between motif sites
	siteMargin = 500  // background keep-out around motif geometry
	blockSide  = 10000
	// labelExpand is the oracle region margin around a core. It covers the
	// full motif reach (400 nm) plus the optical interaction range, so a
	// motif's complete defect population is visible when classifying it.
	labelExpand = 600
)

// DefaultLayer is the metal layer used by generated benchmarks.
const DefaultLayer layout.Layer = 1

// Generate builds one benchmark deterministically from its config.
func Generate(cfg Config) *Benchmark {
	if cfg.Scale > 0 && cfg.Scale != 1 {
		lin := cfg.Scale
		cfg.W = geom.Coord(float64(cfg.W) * lin)
		cfg.H = geom.Coord(float64(cfg.H) * lin)
		// Planted testing hotspots scale with the layout area; the
		// training set is an independent clip collection (the contest
		// ships it separately), so it shrinks only linearly to keep the
		// learning problem meaningful at reduced scales.
		cfg.TestHS = scaleCount(cfg.TestHS, lin*lin)
		cfg.TrainHS = scaleCount(cfg.TrainHS, lin)
		cfg.TrainNHS = scaleCount(cfg.TrainNHS, lin)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hashName(cfg.Name))))

	b := &Benchmark{
		Name:    cfg.Name,
		Process: cfg.Process,
		Spec:    clip.DefaultSpec,
		Layer:   DefaultLayer,
	}
	b.Test, b.TruthCores = generateTestLayout(cfg, rng)
	b.Train = generateTraining(cfg, rand.New(rand.NewSource(cfg.Seed+77)))
	return b
}

func scaleCount(n int, f float64) int {
	out := int(float64(n) * f)
	if n > 0 && out < 2 {
		out = 2
	}
	return out
}

func hashName(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// labeledMotif pairs a motif with its oracle verdict (standalone, which
// equals in-situ because background keeps siteMargin >= optical reach away).
type labeledMotif struct {
	m     Motif
	class motifClass
}

// motifClass is the oracle verdict on a standalone motif.
type motifClass uint8

const (
	// motifSafe: no defect anywhere in the motif's reach.
	motifSafe motifClass = iota
	// motifHot: at least one defect, and every defect overlaps the core —
	// so a planted truth core accounts for the site's entire defect
	// population and "extra" counts stay honest.
	motifHot
	// motifMixed: defects exist outside the core; such motifs are
	// rejected (their truth would be incomplete).
	motifMixed
)

// classifyMotif runs the oracle on a standalone motif in core-local frame.
func classifyMotif(m Motif) motifClass {
	core := geom.R(0, 0, coreSide, coreSide)
	region := core.Expand(labelExpand)
	ds := litho.Default.Defects(m.Rects, region)
	if len(ds) == 0 {
		return motifSafe
	}
	for _, d := range ds {
		if !d.At.Overlaps(core) {
			return motifMixed
		}
	}
	return motifHot
}

// collectMotifs draws motifs from rng (serially, for determinism), labels
// them in parallel batches, and returns the first `want` whose verdict
// matches wantHot. It gives up after a generous try budget.
func collectMotifs(rng *rand.Rand, risky, wantHot bool, want, workers int) []Motif {
	var out []Motif
	const batch = 128
	tries := 0
	maxTries := want*30 + 1000
	for len(out) < want && tries < maxTries {
		n := batch
		if n > maxTries-tries {
			n = maxTries - tries
		}
		cand := make([]labeledMotif, n)
		for i := range cand {
			cand[i].m = RandomMotif(rng, risky)
		}
		tries += n
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range cand {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cand[i].class = classifyMotif(cand[i].m)
			}(i)
		}
		wg.Wait()
		for _, c := range cand {
			wantClass := motifSafe
			if wantHot {
				wantClass = motifHot
			}
			if c.class == wantClass && len(out) < want {
				out = append(out, c.m)
			}
		}
	}
	return out
}

// generateTestLayout builds the testing layout and its ground truth.
func generateTestLayout(cfg Config, rng *rand.Rand) (*layout.Layout, []geom.Rect) {
	l := layout.New(cfg.Name)
	spec := clip.DefaultSpec

	// Motif sites on a grid, shuffled deterministically.
	var sites []geom.Point
	for y := geom.Coord(sitePitch); y+sitePitch/2 < cfg.H; y += sitePitch {
		for x := geom.Coord(sitePitch); x+sitePitch/2 < cfg.W; x += sitePitch {
			sites = append(sites, geom.Pt(x, y))
		}
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })

	wantHot := cfg.TestHS
	if wantHot > len(sites) {
		wantHot = len(sites)
	}
	wantSafe := cfg.TestHS
	if wantHot+wantSafe > len(sites) {
		wantSafe = len(sites) - wantHot
	}
	hotMotifs := collectMotifs(rng, true, true, wantHot, cfg.Workers)
	safeMotifs := collectMotifs(rng, false, false, wantSafe, cfg.Workers)

	type placement struct {
		at geom.Point
		m  Motif
	}
	var placements []placement
	var truth []geom.Rect
	idx := 0
	for _, m := range hotMotifs {
		placements = append(placements, placement{sites[idx], m})
		truth = append(truth, spec.CoreFor(sites[idx]))
		idx++
	}
	for _, m := range safeMotifs {
		placements = append(placements, placement{sites[idx], m})
		idx++
	}

	// Background routing, avoiding motif keep-outs.
	keepOut := make([]geom.Rect, 0, len(placements))
	for _, p := range placements {
		bb := geom.BoundingBox(p.m.Translate(p.at))
		keepOut = append(keepOut, bb.Expand(siteMargin))
	}
	fillBackground(l, cfg, rng, keepOut)

	// Place motif geometry.
	clipBox := geom.R(0, 0, cfg.W, cfg.H)
	for _, p := range placements {
		for _, r := range p.m.Translate(p.at) {
			l.AddRect(DefaultLayer, r.Intersect(clipBox))
		}
	}
	l.Bounds = l.Bounds.Union(clipBox)
	return l, truth
}

// fillBackground lays safe routing into a fraction of the layout blocks.
// Blocks carrying a motif site are always filled: real layouts do not have
// hotspots on isolated geometry islands, and the clip extractor's
// border-distance requirement (correctly) rejects such islands.
func fillBackground(l *layout.Layout, cfg Config, rng *rand.Rand, keepOut []geom.Rect) {
	grid := layout.NewGrid(keepOut)
	for by := geom.Coord(0); by < cfg.H; by += blockSide {
		for bx := geom.Coord(0); bx < cfg.W; bx += blockSide {
			block := geom.R(bx, by, minC(bx+blockSide, cfg.W), minC(by+blockSide, cfg.H))
			hasSite := len(grid.Query(block, nil)) > 0
			if !hasSite && rng.Float64() >= cfg.FillFactor {
				continue
			}
			fillBlock(l, block, rng, grid)
		}
	}
}

func minC(a, b geom.Coord) geom.Coord {
	if a < b {
		return a
	}
	return b
}

// fillBlock fills one block with a safe wire array (horizontal or
// vertical), splitting wires around keep-out regions. A street margin
// keeps adjacent blocks' wire arrays apart: blocks draw independent wire
// phases, and without the street two horizontally-adjacent horizontal
// arrays could abut with an arbitrary (possibly sub-resolution) offset at
// the block boundary — a real bridge in what must be clean background.
func fillBlock(l *layout.Layout, block geom.Rect, rng *rand.Rand, keepOut *layout.Grid) {
	const street = 150
	block = geom.R(block.X0+street, block.Y0+street, block.X1-street, block.Y1-street)
	if block.Empty() {
		return
	}
	width := geom.Coord(80 + rng.Intn(8)*10)   // 80..150
	space := geom.Coord(120 + rng.Intn(10)*10) // 120..210
	pitch := width + space
	horizontal := rng.Intn(2) == 0
	var cuts []geom.Rect
	if horizontal {
		for y := block.Y0 + space; y+width <= block.Y1; y += pitch {
			wire := geom.R(block.X0, y, block.X1, y+width)
			cuts = keepOut.Query(wire, cuts[:0])
			emitWireSegments(l, wire, cuts, true)
		}
	} else {
		for x := block.X0 + space; x+width <= block.X1; x += pitch {
			wire := geom.R(x, block.Y0, x+width, block.Y1)
			cuts = keepOut.Query(wire, cuts[:0])
			emitWireSegments(l, wire, cuts, false)
		}
	}
}

// emitWireSegments adds the parts of wire not blocked by any cut region.
func emitWireSegments(l *layout.Layout, wire geom.Rect, cuts []geom.Rect, horizontal bool) {
	type span struct{ lo, hi geom.Coord }
	var blocked []span
	for _, c := range cuts {
		if !c.Overlaps(wire) {
			continue
		}
		if horizontal {
			blocked = append(blocked, span{c.X0, c.X1})
		} else {
			blocked = append(blocked, span{c.Y0, c.Y1})
		}
	}
	var lo, hi geom.Coord
	if horizontal {
		lo, hi = wire.X0, wire.X1
	} else {
		lo, hi = wire.Y0, wire.Y1
	}
	for i := 1; i < len(blocked); i++ {
		for j := i; j > 0 && blocked[j].lo < blocked[j-1].lo; j-- {
			blocked[j], blocked[j-1] = blocked[j-1], blocked[j]
		}
	}
	pos := lo
	emit := func(a, b geom.Coord) {
		if b-a < 200 { // drop slivers
			return
		}
		if horizontal {
			l.AddRect(DefaultLayer, geom.R(a, wire.Y0, b, wire.Y1))
		} else {
			l.AddRect(DefaultLayer, geom.R(wire.X0, a, wire.X1, b))
		}
	}
	for _, b := range blocked {
		if b.lo > pos {
			emit(pos, b.lo)
		}
		if b.hi > pos {
			pos = b.hi
		}
	}
	if pos < hi {
		emit(pos, hi)
	}
}

// generateTraining builds the labelled training clip set: standalone clips
// with a motif core and safe routing context, labelled by the oracle.
func generateTraining(cfg Config, rng *rand.Rand) []*clip.Pattern {
	spec := clip.DefaultSpec
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Each motif yields one clip per valid extraction anchor (capped), so
	// the training set covers the same clip alignments the evaluation
	// extractor will produce. Motifs are drawn until the class budgets
	// are filled.
	var hs []*clip.Pattern
	for len(hs) < cfg.TrainHS {
		ms := collectMotifs(rng, true, true, maxI(1, (cfg.TrainHS-len(hs))/3+1), workers)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			for _, a := range anchorsFor(m, spec, true) {
				if len(hs) >= cfg.TrainHS {
					break
				}
				hs = append(hs, motifClipAt(rng, m, spec, a, clip.Hotspot))
			}
		}
	}
	var nhs []*clip.Pattern
	for len(nhs) < cfg.TrainNHS {
		// A third of the nonhotspots are plain routing clips with no motif
		// (redundant negatives the population balancing removes).
		if len(nhs)%3 == 0 {
			nhs = append(nhs, routingClip(rng, spec))
			continue
		}
		ms := collectMotifs(rng, false, false, maxI(1, (cfg.TrainNHS-len(nhs))/3+1), workers)
		if len(ms) == 0 {
			break
		}
		for _, m := range ms {
			for _, a := range anchorsFor(m, spec, false) {
				if len(nhs) >= cfg.TrainNHS {
					break
				}
				nhs = append(nhs, motifClipAt(rng, m, spec, a, clip.NonHotspot))
			}
		}
	}
	out := make([]*clip.Pattern, 0, len(hs)+len(nhs))
	out = append(out, hs...)
	out = append(out, nhs...)
	return out
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// motifClipAt wraps a labelled motif into a full training clip anchored at
// the given extraction-style anchor, with safe routing context in the
// ambit. Anchoring training clips the same way the evaluation-phase clip
// extractor anchors clips (at dissected polygon piece corners) keeps the
// training distribution aligned with the clips the detector will actually
// see (§III-E: the residual extraction error is then within the
// data-shifting tolerance).
func motifClipAt(rng *rand.Rand, m Motif, spec clip.Spec, at geom.Point, label clip.Label) *clip.Pattern {
	window := spec.WindowFor(at)
	core := spec.CoreFor(at)
	rects := m.Translate(geom.Pt(0, 0)) // geometry stays in core-local frame
	bb := geom.BoundingBox(rects).Expand(siteMargin)
	rects = append(rects, contextWires(rng, window, bb)...)
	kept := rects[:0]
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			kept = append(kept, c)
		}
	}
	return &clip.Pattern{Window: window, Core: core, Rects: kept, Label: label}
}

// anchorsFor enumerates the clip-extraction-style anchors of a motif: the
// bottom-left corners of its dissected pieces whose core keeps the motif's
// defect (hotspot) or centre (nonhotspot) inside, in deterministic order.
func anchorsFor(m Motif, spec clip.Spec, hot bool) []geom.Point {
	var pieces []geom.Rect
	for _, r := range m.Rects {
		pieces = appendPieces(pieces, r, spec.CoreSide)
	}
	var want geom.Rect
	if hot {
		ds := motifDefects(m)
		if len(ds) > 0 {
			want = ds[0]
		}
	}
	if want.Empty() {
		want = geom.R(500, 500, 700, 700) // around the motif centre
	}
	var valid []geom.Point
	seen := map[geom.Point]bool{}
	for _, p := range pieces {
		a := geom.Pt(p.X0, p.Y0)
		if seen[a] {
			continue
		}
		seen[a] = true
		if spec.CoreFor(a).ContainsRect(want) {
			valid = append(valid, a)
		}
	}
	if len(valid) == 0 {
		return []geom.Point{geom.Pt(0, 0)}
	}
	sortPoints(valid)
	return valid
}

func sortPoints(pts []geom.Point) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0; j-- {
			a, b := pts[j], pts[j-1]
			if a.Y < b.Y || (a.Y == b.Y && a.X < b.X) {
				pts[j], pts[j-1] = b, a
			} else {
				break
			}
		}
	}
}

func appendPieces(out []geom.Rect, r geom.Rect, maxSide geom.Coord) []geom.Rect {
	for y := r.Y0; y < r.Y1; y += maxSide {
		y1 := minC(y+maxSide, r.Y1)
		for x := r.X0; x < r.X1; x += maxSide {
			out = append(out, geom.Rect{X0: x, Y0: y, X1: minC(x+maxSide, r.X1), Y1: y1})
		}
	}
	return out
}

// motifDefects returns the standalone defect locations of a motif.
func motifDefects(m Motif) []geom.Rect {
	core := geom.R(0, 0, coreSide, coreSide)
	region := core.Expand(labelExpand)
	ds := litho.Default.Defects(m.Rects, region)
	var out []geom.Rect
	for _, d := range ds {
		if d.At.Overlaps(core) {
			out = append(out, d.At.Intersect(core))
		}
	}
	return out
}

// routingClip is a plain safe-routing clip (always a nonhotspot).
func routingClip(rng *rand.Rand, spec clip.Spec) *clip.Pattern {
	at := geom.Pt(0, 0)
	window := spec.WindowFor(at)
	return &clip.Pattern{
		Window: window,
		Core:   spec.CoreFor(at),
		Rects:  contextWires(rng, window, geom.Rect{}),
		Label:  clip.NonHotspot,
	}
}

// contextWires fills a clip window with safe routing outside the keep-out.
func contextWires(rng *rand.Rand, window geom.Rect, keepOut geom.Rect) []geom.Rect {
	width := geom.Coord(80 + rng.Intn(8)*10)
	space := geom.Coord(120 + rng.Intn(10)*10)
	pitch := width + space
	var out []geom.Rect
	horizontal := rng.Intn(2) == 0
	if horizontal {
		for y := window.Y0 + space; y+width <= window.Y1; y += pitch {
			wire := geom.R(window.X0, y, window.X1, y+width)
			out = appendOutsideKeepOut(out, wire, keepOut, true)
		}
	} else {
		for x := window.X0 + space; x+width <= window.X1; x += pitch {
			wire := geom.R(x, window.Y0, x+width, window.Y1)
			out = appendOutsideKeepOut(out, wire, keepOut, false)
		}
	}
	return out
}

func appendOutsideKeepOut(out []geom.Rect, wire, keepOut geom.Rect, horizontal bool) []geom.Rect {
	if keepOut.Empty() || !keepOut.Overlaps(wire) {
		return append(out, wire)
	}
	if horizontal {
		if keepOut.X0-wire.X0 >= 200 {
			out = append(out, geom.R(wire.X0, wire.Y0, keepOut.X0, wire.Y1))
		}
		if wire.X1-keepOut.X1 >= 200 {
			out = append(out, geom.R(keepOut.X1, wire.Y0, wire.X1, wire.Y1))
		}
		return out
	}
	if keepOut.Y0-wire.Y0 >= 200 {
		out = append(out, geom.R(wire.X0, wire.Y0, wire.X1, keepOut.Y0))
	}
	if wire.Y1-keepOut.Y1 >= 200 {
		out = append(out, geom.R(wire.X0, keepOut.Y1, wire.X1, wire.Y1))
	}
	return out
}

// Stats summarizes a benchmark like a Table I row.
type Stats struct {
	Name          string
	TrainHS       int
	TrainNHS      int
	TestHS        int
	AreaUM2       float64
	Process       string
	LayoutRects   int
	LayoutDensity float64
}

// Stats computes the benchmark's Table I row.
func (b *Benchmark) Stats() Stats {
	s := Stats{Name: b.Name, Process: b.Process}
	for _, p := range b.Train {
		if p.Label == clip.Hotspot {
			s.TrainHS++
		} else {
			s.TrainNHS++
		}
	}
	s.TestHS = len(b.TruthCores)
	s.AreaUM2 = float64(b.Test.Area()) / 1e6
	s.LayoutRects = b.Test.NumRects()
	if b.Test.Area() > 0 {
		s.LayoutDensity = float64(b.Test.PolygonArea(b.Layer)) / float64(b.Test.Area())
	}
	return s
}

// String renders the stats row.
func (s Stats) String() string {
	return fmt.Sprintf("%-18s #hs=%-5d #nhs=%-5d #test-hs=%-5d area=%.0fum2 process=%s rects=%d density=%.2f",
		s.Name, s.TrainHS, s.TrainNHS, s.TestHS, s.AreaUM2, s.Process, s.LayoutRects, s.LayoutDensity)
}
