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
	// Telemetry breaks the evaluation down by pipeline stage: the tiled
	// scan (extraction and evaluation) and redundant clip removal, with
	// per-stage wall times, item counts, and aggregate counters (tiles,
	// kernel decision evaluations, flags, feedback reclaims). Always
	// populated; JSON-serializable.
	Telemetry obs.Telemetry `json:"telemetry"`
}

// Detect evaluates a testing layout: density-based clip extraction,
// multiple-kernel evaluation, feedback-kernel filtering, and redundant clip
// removal. It is a tiled scan with default options (see ScanTiledContext).
// It is safe to call concurrently from multiple goroutines, and
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
// deadline or cancellation is checked before every tile and every chunk
// of at most scan.ChunkSize candidates, and every few hundred pieces
// during clip extraction, so a long full-chip scan stops within one
// chunk's evaluation of the deadline. On cancellation the partial report
// accumulated so far is returned together with the context's error;
// callers must treat a non-nil error as "incomplete" regardless of the
// report's contents. A layout too close to the int32 coordinate limits is
// refused with ErrCoordRange before any work. A panic in an evaluation
// worker ends the call with its *workerpanic.Error, so a server fails the
// one request. The concurrency guarantees of Detect apply.
func (d *Detector) DetectContext(ctx context.Context, l *layout.Layout) (Report, error) {
	rep, _, err := d.ScanTiledContext(ctx, l, ScanOptions{})
	return rep, err
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
