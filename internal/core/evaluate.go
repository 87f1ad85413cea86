package core

import (
	"context"
	"sort"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/topo"
	"hotspot/internal/workerpanic"
)

// Report is the outcome of evaluating a testing layout.
type Report struct {
	// Hotspots are the reported hotspot cores (after redundant clip
	// removal when enabled).
	Hotspots []geom.Rect `json:"hotspots"`
	// Candidates counts the extracted layout clips.
	Candidates int `json:"candidates"`
	// Flagged counts clips flagged by the multiple kernels before the
	// feedback kernel and removal.
	Flagged int `json:"flagged"`
	// Reclaimed counts flags the feedback kernel reclaimed as nonhotspots.
	Reclaimed int `json:"reclaimed"`
	// Runtime is the wall-clock evaluation time.
	Runtime time.Duration `json:"runtime_ns"`
	// Telemetry breaks the evaluation down by pipeline stage: clip
	// extraction, multi-kernel evaluation, and redundant clip removal,
	// with per-stage wall times, item counts, and aggregate counters
	// (kernel decision evaluations, feedback reclaims). Always populated;
	// JSON-serializable.
	Telemetry obs.Telemetry `json:"telemetry"`
}

// Detect evaluates a testing layout: density-based clip extraction,
// multiple-kernel evaluation, feedback-kernel filtering, and redundant clip
// removal. It is safe to call concurrently from multiple goroutines, and
// concurrently with SetBias/SetWorkers (each call snapshots the
// configuration once at entry). A worker panic is raised again on the
// caller's goroutine as its *workerpanic.Error.
func (d *Detector) Detect(l *layout.Layout) Report {
	rep, err := d.DetectContext(context.Background(), l)
	if p, ok := err.(*workerpanic.Error); ok {
		panic(p)
	}
	return rep
}

// DetectContext is Detect with cooperative cancellation: the context's
// deadline or cancellation is checked between pipeline stages, every few
// hundred pieces during clip extraction, and between evaluation chunks
// (candidate clips are batched detectChunk at a time through the flat SVM
// decision path), so a long full-chip scan stops within one chunk's
// evaluation of the deadline. On cancellation the partial report
// accumulated so far is returned together with the context's error;
// callers must treat a non-nil error as "incomplete" regardless of the
// report's contents. A layout too close to the int32 coordinate limits is
// refused with ErrCoordRange before any work. A panic in an evaluation
// worker ends the call with its *workerpanic.Error, so a server fails the
// one request; any other panic propagates. The concurrency guarantees of
// Detect apply.
func (d *Detector) DetectContext(ctx context.Context, l *layout.Layout) (rep Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, ok := v.(*workerpanic.Error)
			if !ok {
				panic(v)
			}
			err = p
		}
	}()
	start := time.Now()
	cfg := d.config()
	tel := &rep.Telemetry

	// Anchor the snap-dedup grid on the geometry bounds: the report is
	// then equivariant under rigid translation of the layout (locked by
	// TestMetamorphicDetectTranslationInvariant) and independent of the
	// design frame, which wire formats like the /v1/scan rect soup drop.
	gb := l.GeometryBounds()
	cfg.Requirements.SnapBase = geom.Pt(gb.X0, gb.Y0)
	if err := checkCoordRange(gb, cfg.Spec, 0); err != nil {
		return rep, err
	}

	sp := obs.Begin(tel, cfg.Obs, "detect.extract")
	cands, err := clip.ExtractContext(ctx, l, cfg.Layer, cfg.Spec, cfg.Requirements, cfg.Workers, cfg.Obs)
	rep.Candidates = len(cands)
	sp.AddItems(int64(len(cands)))
	sp.End()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		cfg.Obs.Counter("detect.cancelled").Inc()
		rep.Runtime = time.Since(start)
		return rep, err
	}

	sp = obs.Begin(tel, cfg.Obs, "detect.evaluate")
	var cores []geom.Rect
	kernelEvals := int64(0)
	// One evaluation arena serves every chunk: pattern slots, feature rows,
	// and decision buffers reach their high-water sizes in the first chunks
	// and are reused thereafter (the zero-allocation fast path).
	s := getScratch()
	defer putScratch(s)
	for lo := 0; lo < len(cands); lo += detectChunk {
		if err := ctx.Err(); err != nil {
			sp.End()
			cfg.Obs.Counter("detect.cancelled").Inc()
			rep.Runtime = time.Since(start)
			return rep, err
		}
		hi := lo + detectChunk
		if hi > len(cands) {
			hi = len(cands)
		}
		ps := s.patterns(hi - lo)
		parallelFor(len(ps), cfg.Workers, func(i int) {
			clip.FromLayoutInto(ps[i], l, cfg.Layer, cfg.Spec, cands[lo+i].At, 0)
		})
		vs := d.evalBatchScratch(s, ps, cfg)
		reclaimed := d.feedbackBatchScratch(s, ps, vs, cfg)
		for i := range vs {
			kernelEvals += int64(vs[i].evals)
			if !vs[i].flagged {
				continue
			}
			rep.Flagged++
			if reclaimed[i] {
				rep.Reclaimed++
				continue
			}
			cores = append(cores, ps[i].Core)
		}
	}
	sp.AddItems(int64(len(cands)))
	sp.End()
	tel.AddCounter("detect.kernel_evals", kernelEvals)
	tel.AddCounter("detect.flagged", int64(rep.Flagged))
	tel.AddCounter("detect.reclaimed", int64(rep.Reclaimed))
	cfg.Obs.Counter("detect.kernel_evals").Add(kernelEvals)
	cfg.Obs.Counter("detect.flagged").Add(int64(rep.Flagged))
	cfg.Obs.Counter("detect.reclaimed").Add(int64(rep.Reclaimed))

	if cfg.EnableRemoval {
		sp = obs.Begin(tel, cfg.Obs, "detect.removal")
		before := len(cores)
		cores = RemoveRedundant(cores, l, cfg)
		sp.AddItems(int64(before - len(cores)))
		sp.End()
	}
	rep.Hotspots = cores
	rep.Runtime = time.Since(start)
	cfg.Obs.Counter("detect.runs").Inc()
	cfg.Obs.Histogram("detect.seconds").Observe(rep.Runtime.Seconds())
	return rep, nil
}

// ClassifyPattern evaluates one standalone clip, returning the predicted
// label (after the feedback kernel when present). It is ClassifyBatch of
// one clip, so it goes through the same batched path and verdict memo.
// Safe for concurrent use.
func (d *Detector) ClassifyPattern(p *clip.Pattern) clip.Label {
	return d.ClassifyBatch([]*clip.Pattern{p})[0]
}

// routedKernels selects kernel indices for a clip: exact topology matches
// first, else the RouteK nearest by density distance.
func routedKernels(kernels []*kernelUnit, key string, p *clip.Pattern, cfg Config) []int {
	var exact []int
	for i, k := range kernels {
		if k.key == key {
			exact = append(exact, i)
		}
	}
	if len(exact) > 0 {
		return exact
	}
	grid := cfg.Topo.DensityGrid
	if grid <= 0 {
		grid = topo.DefaultOptions.DensityGrid
	}
	den := topo.ComputeDensity(p.CoreRects(), p.Core, grid)
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, 0, len(kernels))
	for i, k := range kernels {
		cands = append(cands, cand{i, topo.Dist(den, k.centroid)})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	n := cfg.RouteK
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// SetBias changes the detector's decision-threshold bias (the Fig. 15
// operating-point knob) without retraining. Safe to call while Detect runs
// on other goroutines: in-flight detections keep the bias they started
// with.
func (d *Detector) SetBias(bias float64) {
	d.mu.Lock()
	d.cfg.Bias = bias
	d.mu.Unlock()
}

// SetObs attaches (or, with nil, detaches) a metrics registry without
// retraining — the way to instrument a model restored with Load, whose
// persisted configuration carries no registry. Safe to call while Detect
// runs on other goroutines.
func (d *Detector) SetObs(reg *obs.Registry) {
	d.mu.Lock()
	d.cfg.Obs = reg
	d.mu.Unlock()
}

// SetWorkers changes evaluation parallelism (1 = the serial ours_nopara
// mode) without retraining. Safe to call while Detect runs on other
// goroutines.
func (d *Detector) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.cfg.Workers = n
	d.mu.Unlock()
}
