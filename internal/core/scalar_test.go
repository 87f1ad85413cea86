package core

import (
	"fmt"
	"sync"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/topo"
)

// The per-clip evaluation below is the scalar reference the batched engine
// (evalBatchScratch, feedbackBatchScratch) is checked against: one clip at
// a time, one Decision per kernel, features extracted per call. No
// production path runs it.

// classifyScalar is the per-clip label: the multiple kernels flag, then the
// feedback kernel may reclaim a weak flag.
func (d *Detector) classifyScalar(p *clip.Pattern, cfg Config) clip.Label {
	hit, _, conf, _ := d.multiKernelEval(p, cfg)
	if !hit || d.feedbackReclaims(p, conf, cfg) {
		return clip.NonHotspot
	}
	return clip.Hotspot
}

// detectReference is the monolithic reference every scan route is checked
// against: whole-layout extraction on the snap base Detect anchors (the
// geometry bounds' low corner), one pattern per candidate, the scalar
// per-clip chain, and redundant clip removal. No tiles, chunks, scan.Run
// or batched evaluation take part. Only the deterministic outcome fields
// are set. Training is deterministic, so references are cached by model
// digest and layout across the tests that retrain the same detector.
func (d *Detector) detectReference(l *layout.Layout) Report {
	key := fmt.Sprintf("%s/%p", d.ModelDigest(), l)
	if rep, ok := references.Load(key); ok {
		return rep.(Report)
	}
	cfg := d.config()
	gb := l.GeometryBounds()
	cfg.Requirements.SnapBase = geom.Pt(gb.X0, gb.Y0)
	cands := clip.ExtractParallel(l, cfg.Layer, cfg.Spec, cfg.Requirements, cfg.Workers)
	rep := Report{Candidates: len(cands)}
	var cores []geom.Rect
	for _, c := range cands {
		p := clip.FromLayout(l, cfg.Layer, cfg.Spec, c.At, 0)
		hit, _, conf, _ := d.multiKernelEval(p, cfg)
		if !hit {
			continue
		}
		rep.Flagged++
		if d.feedbackReclaims(p, conf, cfg) {
			rep.Reclaimed++
			continue
		}
		cores = append(cores, p.Core)
	}
	if cfg.EnableRemoval {
		cores = RemoveRedundant(cores, l, cfg)
	}
	rep.Hotspots = cores
	references.Store(key, rep)
	return rep
}

// references caches detectReference reports.
var references sync.Map

// multiKernelEval is multiKernelFlag plus the maximum decision value over
// all kernels, used as the flag's confidence by the feedback stage. The
// last return is the number of kernel decision evaluations performed.
func (d *Detector) multiKernelEval(p *clip.Pattern, cfg Config) (bool, int, float64, int) {
	flagged, kidx, evals := d.multiKernelFlag(p, cfg)
	if !flagged {
		return false, kidx, 0, evals
	}
	// Compute the confidence (max decision) only for flagged clips.
	ex := features.ExtractAll(p.CoreRects(), p.Core)
	best := 0.0
	for _, k := range d.kernels {
		var x []float64
		if k.key == "" && len(d.kernels) == 1 {
			x = k.scaler.Apply(features.VectorDirectFrom(ex, cfg.BasicSlots))
		} else {
			x = k.scaler.Apply(k.extractor.VectorFrom(ex))
		}
		if v := k.model.Decision(x); v > best {
			best = v
		}
	}
	evals += len(d.kernels)
	return true, kidx, best, evals
}

// multiKernelFlag runs the multiple-kernel evaluation (§III-D4): the clip
// is flagged as a hotspot when any kernel classifies it as one. Features
// are extracted once and aligned per kernel. With RouteK > 0 the clip is
// instead routed to exact-topology kernels or its RouteK density-nearest
// kernels — a cheaper approximation (see BenchmarkAblationRouting for the
// accuracy cost). Returns the flag, the index of the flagging kernel (for
// feedback training), and the number of kernel decisions evaluated.
func (d *Detector) multiKernelFlag(p *clip.Pattern, cfg Config) (bool, int, int) {
	if len(d.kernels) == 0 {
		return false, -1, 0
	}
	ex := features.ExtractAll(p.CoreRects(), p.Core)
	if len(d.kernels) == 1 && d.kernels[0].key == "" {
		// Basic single kernel: no routing.
		k := d.kernels[0]
		x := k.scaler.Apply(features.VectorDirectFrom(ex, cfg.BasicSlots))
		return k.model.PredictWithBias(x, cfg.Bias) > 0, 0, 1
	}
	if cfg.RouteK > 0 {
		key := topo.CanonicalKey(p.CoreRects(), p.Core)
		evals := 0
		for _, ki := range routedKernels(d.kernels, key, p, cfg) {
			k := d.kernels[ki]
			x := k.scaler.Apply(k.extractor.VectorFrom(ex))
			evals++
			if k.model.PredictWithBias(x, cfg.Bias) > 0 {
				return true, ki, evals
			}
		}
		return false, -1, evals
	}
	for ki, k := range d.kernels {
		x := k.scaler.Apply(k.extractor.VectorFrom(ex))
		if k.model.PredictWithBias(x, cfg.Bias) > 0 {
			return true, ki, ki + 1
		}
	}
	return false, -1, len(d.kernels)
}

// feedbackReclaims applies the feedback kernel to a flagged clip: the flag
// is withdrawn only when the feedback decision is clearly on the
// nonhotspot side (below -FeedbackMargin) AND the multi-kernel flag was
// weak (confidence below FeedbackOverride) — confidently flagged clips are
// never reclaimed, so accuracy is not sacrificed for false-alarm
// reduction.
func (d *Detector) feedbackReclaims(p *clip.Pattern, confidence float64, cfg Config) bool {
	if d.feedback == nil {
		return false
	}
	if confidence >= cfg.FeedbackOverride && cfg.FeedbackOverride > 0 {
		return false
	}
	x := d.feedback.scaler.Apply(d.feedback.vector(p))
	return d.feedback.model.Decision(x) < -cfg.FeedbackMargin
}

// vector extracts a pattern's core-region feature vector in this kernel's
// layout (unscaled).
func (k *kernelUnit) vector(p *clip.Pattern) []float64 {
	return k.extractor.Vector(p.CoreRects(), p.Core)
}
