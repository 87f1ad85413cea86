package core

import (
	"sort"
	"sync/atomic"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/scan"
	"hotspot/internal/workerpanic"
)

// batchVerdict is one clip's multiple-kernel outcome from evalBatchScratch:
// whether any kernel flags it, the index of the first flagging kernel, the
// flag's confidence (the maximum decision over all kernels) and the number
// of kernel decisions a per-clip evaluation would perform.
type batchVerdict struct {
	flagged bool
	kidx    int
	conf    float64
	evals   int
}

// parallelFor runs f(0..n-1) across up to `workers` goroutines. With one
// worker (the ours_nopara mode) it degrades to a plain loop. A panic in f
// stops the workers from taking more items and, once they have returned,
// panics again on the caller's goroutine with a *workerpanic.Error
// carrying the first worker's panic value and stack.
func parallelFor(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var g workerpanic.Group
	for w := 0; w < workers; w++ {
		g.Go(func() {
			for !g.Panicked() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		})
	}
	g.Wait()
}

// evalChunks runs f over ps in chunks of up to scan.ChunkSize clips, the
// scan's unit of work, across up to workers goroutines. Each chunk gets
// its own scratch arena; lo is the chunk's offset in ps.
func evalChunks(ps []*clip.Pattern, workers int, f func(s *evalScratch, lo int, chunk []*clip.Pattern)) {
	parallelFor((len(ps)+scan.ChunkSize-1)/scan.ChunkSize, workers, func(c int) {
		lo := c * scan.ChunkSize
		s := getScratch()
		defer putScratch(s)
		f(s, lo, ps[lo:min(lo+scan.ChunkSize, len(ps))])
	})
}

// basicOnly reports whether the detector is the single-huge-kernel "Basic"
// baseline (no routing, the flag decision doubles as the confidence).
func (d *Detector) basicOnly() bool {
	return len(d.kernels) == 1 && d.kernels[0].key == ""
}

// evalBatchScratch runs the multiple-kernel evaluation (§III-D4) of a
// batch of clips: the verdict memo resolves the geometries it has seen,
// then features are extracted once per remaining clip and every kernel
// evaluates the batch through svm.Model.DecisionBatchInto. Because the
// batched decision is bit-for-bit equal to the scalar one and the memo is
// verdict-preserving, each verdict matches a per-clip evaluation of that
// clip — including the flagging-kernel index and the kernel-evaluation
// count (TestClassifyBatchMatchesScalar checks it against a scalar
// reference).
//
// The feature work runs on the caller's goroutine and callers parallelize
// across batches; only svm.Model.DecisionBatchInto still fans a kernel's
// rows out over GOMAXPROCS goroutines once there are 32 or more. The
// returned slice is s.vs — valid until the next call that uses s. In the
// steady state (every clip resolved by the memo, no registry attached) the
// call performs zero heap allocations, which TestEvalBatchZeroAlloc locks
// in.
func (d *Detector) evalBatchScratch(s *evalScratch, ps []*clip.Pattern, cfg Config) []batchVerdict {
	n := len(ps)
	vs := s.verdicts(n)
	if n == 0 || len(d.kernels) == 0 {
		return vs
	}
	var alloc0 uint64
	if cfg.Obs != nil {
		alloc0 = s.allocBytes()
	}
	defer setStage(labelBase)

	live := s.live[:0]
	hashes := s.hashes[:0]
	var memo *verdictMemo
	hits := 0
	if !cfg.DisablePrescreen {
		setStage(labelClassify)
		memo = d.memoFor(cfg)
		for i, p := range ps {
			h := coreHash(p)
			if v, ok := memo.lookup(h, p); ok {
				vs[i] = v
				hits++
				continue
			}
			live = append(live, i)
			hashes = append(hashes, h)
		}
	} else {
		for i := range ps {
			live = append(live, i)
		}
	}
	s.live = live
	s.hashes = hashes

	if len(live) > 0 {
		d.evalLive(s, ps, live, cfg)
		if memo != nil {
			for t, i := range live {
				memo.insert(hashes[t], ps[i], vs[i])
			}
		}
	}
	if reg := cfg.Obs; reg != nil {
		reg.Counter("eval.memo_hits").Add(int64(hits))
		reg.Counter("eval.memo_misses").Add(int64(len(live)))
		reg.Histogram("eval.alloc_bytes_per_clip").
			Observe(float64(s.allocBytes()-alloc0) / float64(n))
	}
	return vs
}

// evalLive runs feature extraction and the kernel decisions for the clips
// the memo could not resolve, writing verdicts into s.vs.
func (d *Detector) evalLive(s *evalScratch, ps []*clip.Pattern, live []int, cfg Config) {
	m := len(live)
	if cap(s.exs) < m {
		s.exs = make([]features.Extracted, m)
	}
	exs := s.exs[:m]
	s.exs = exs
	routed := cfg.RouteK > 0 && !d.basicOnly()

	setStage(labelExtract)
	if routed {
		// Routing needs the canonical key as well; one canonicalization
		// pass yields both it and the extracted features.
		if cap(s.keys) < m {
			s.keys = make([]string, m)
		}
		s.keys = s.keys[:m]
	}
	for t, i := range live {
		p := ps[i]
		s.core = p.AppendCoreRects(s.core)
		if routed {
			exs[t], s.keys[t] = features.ExtractAllCanonical(s.core, p.Core)
		} else {
			exs[t] = features.ExtractAll(s.core, p.Core)
		}
	}

	setStage(labelSVM)
	switch {
	case d.basicOnly():
		d.evalLiveBasic(s, live, cfg)
	case routed:
		d.evalLiveRouted(s, ps, live, cfg)
	default:
		d.evalLiveAllKernels(s, live, cfg)
	}
}

// basicRow builds live clip t's scaled basic-layout row into scratch slot t.
func (s *evalScratch) basicRow(k *kernelUnit, t, slots int) []float64 {
	s.vec = features.VectorDirectInto(s.exs[t], slots, s.vec)
	row := k.scaler.ApplyInto(s.vec, s.rowSlot(t))
	s.setRow(t, row)
	return row
}

// kernelRow builds live clip t's scaled slot-aligned row into scratch slot t.
func (s *evalScratch) kernelRow(k *kernelUnit, t int) []float64 {
	s.vec, s.used = k.extractor.VectorInto(s.exs[t], s.vec, s.used)
	row := k.scaler.ApplyInto(s.vec, s.rowSlot(t))
	s.setRow(t, row)
	return row
}

// evalLiveBasic evaluates the basic kernel over the live clips.
func (d *Detector) evalLiveBasic(s *evalScratch, live []int, cfg Config) {
	vs := s.vs
	k := d.kernels[0]
	m := len(live)
	rows := s.resizeRows(m)
	for t := 0; t < m; t++ {
		rows[t] = s.basicRow(k, t, cfg.BasicSlots)
	}
	dec := s.resizeDec(m)
	k.model.DecisionBatchInto(rows, dec)
	for t, i := range live {
		vs[i].evals = 1
		if dec[t] >= cfg.Bias {
			vs[i].flagged = true
			vs[i].kidx = 0
			vs[i].evals = 2 // flag pass + confidence pass
			if dec[t] > 0 {
				vs[i].conf = dec[t]
			}
		}
	}
}

// evalLiveAllKernels evaluates every kernel over the live clips
// (kernel-major, one batched decision per kernel) and derives each clip's
// flag, flagging-kernel index, and confidence from the decision stream.
// The evals accounting reproduces the scalar path: ki+1 flag decisions
// plus a |kernels| confidence pass for flagged clips, |kernels| for clean
// ones.
func (d *Detector) evalLiveAllKernels(s *evalScratch, live []int, cfg Config) {
	vs := s.vs
	m := len(live)
	if cap(s.best) < m {
		s.best = make([]float64, m)
	}
	best := s.best[:m]
	s.best = best
	for t := range best {
		best[t] = 0
	}
	rows := s.resizeRows(m)
	dec := s.resizeDec(m)
	for ki, k := range d.kernels {
		for t := 0; t < m; t++ {
			rows[t] = s.kernelRow(k, t)
		}
		k.model.DecisionBatchInto(rows, dec)
		for t, i := range live {
			if !vs[i].flagged && dec[t] >= cfg.Bias {
				vs[i].flagged = true
				vs[i].kidx = ki
			}
			if dec[t] > best[t] {
				best[t] = dec[t]
			}
		}
	}
	for t, i := range live {
		if vs[i].flagged {
			vs[i].evals = vs[i].kidx + 1 + len(d.kernels)
			vs[i].conf = best[t]
		} else {
			vs[i].evals = len(d.kernels)
		}
	}
}

// evalLiveRouted evaluates RouteK-routed clips in routing-position waves:
// at step t every still-unflagged clip whose route has a t-th kernel is
// grouped by that kernel, and each group is one batched decision. The walk
// stops per clip at its first flagging kernel, so the verdicts (and the
// per-clip evaluation counts) match the scalar routed loop exactly; a
// final batched pass over all kernels computes the flagged clips'
// confidences, as for unrouted clips.
func (d *Detector) evalLiveRouted(s *evalScratch, ps []*clip.Pattern, live []int, cfg Config) {
	vs := s.vs
	m := len(live)
	if cap(s.routes) < m {
		s.routes = make([][]int, m)
	}
	routes := s.routes[:m]
	s.routes = routes
	for t, i := range live {
		routes[t] = routedKernels(d.kernels, s.keys[t], ps[i], cfg)
	}

	alive := s.alive[:0]
	for t := 0; t < m; t++ {
		alive = append(alive, t)
	}
	for step := 0; len(alive) > 0; step++ {
		groups := map[int][]int{}
		next := alive[:0]
		for _, t := range alive {
			if step < len(routes[t]) {
				groups[routes[t][step]] = append(groups[routes[t][step]], t)
			}
		}
		if len(groups) == 0 {
			break
		}
		kis := make([]int, 0, len(groups))
		for ki := range groups {
			kis = append(kis, ki)
		}
		sort.Ints(kis)
		for _, ki := range kis {
			k := d.kernels[ki]
			idxs := groups[ki]
			rows := s.resizeRows(len(idxs))
			for u, t := range idxs {
				rows[u] = s.kernelRowFor(k, u, t)
			}
			dec := s.resizeDec(len(idxs))
			k.model.DecisionBatchInto(rows, dec)
			for u, t := range idxs {
				i := live[t]
				vs[i].evals++
				if dec[u] >= cfg.Bias {
					vs[i].flagged = true
					vs[i].kidx = ki
				} else {
					next = append(next, t)
				}
			}
		}
		sort.Ints(next) // keep wave grouping deterministic
		alive = next
	}
	s.alive = alive

	var flagged []int
	for t, i := range live {
		if vs[i].flagged {
			flagged = append(flagged, t)
		}
	}
	if len(flagged) == 0 {
		return
	}
	if cap(s.best) < len(flagged) {
		s.best = make([]float64, len(flagged))
	}
	best := s.best[:len(flagged)]
	s.best = best
	for t := range best {
		best[t] = 0
	}
	rows := s.resizeRows(len(flagged))
	dec := s.resizeDec(len(flagged))
	for _, k := range d.kernels {
		for u, t := range flagged {
			rows[u] = s.kernelRowFor(k, u, t)
		}
		k.model.DecisionBatchInto(rows, dec)
		for u := range flagged {
			if dec[u] > best[u] {
				best[u] = dec[u]
			}
		}
	}
	for u, t := range flagged {
		i := live[t]
		vs[i].conf = best[u]
		vs[i].evals += len(d.kernels)
	}
}

// kernelRowFor is kernelRow reading extraction slot t but storing into row
// slot u (the routed waves evaluate sparse subsets of the live clips).
func (s *evalScratch) kernelRowFor(k *kernelUnit, u, t int) []float64 {
	s.vec, s.used = k.extractor.VectorInto(s.exs[t], s.vec, s.used)
	row := k.scaler.ApplyInto(s.vec, s.rowSlot(u))
	s.setRow(u, row)
	return row
}

// feedbackBatchScratch applies the feedback kernel to a batch's flagged
// clips in one batched decision over their whole windows (core + ambit):
// confidently flagged clips (conf >= FeedbackOverride, when the override
// is armed) are never reclaimed, and a reclaim requires the feedback
// decision clearly on the nonhotspot side (below -FeedbackMargin), so
// accuracy is not sacrificed for false-alarm reduction. The returned slice
// is valid until the next call that uses s. A batch with no feedback
// candidates performs no allocation.
func (d *Detector) feedbackBatchScratch(s *evalScratch, ps []*clip.Pattern, vs []batchVerdict, cfg Config) []bool {
	if cap(s.reclaimed) < len(ps) {
		s.reclaimed = make([]bool, len(ps))
	}
	reclaimed := s.reclaimed[:len(ps)]
	s.reclaimed = reclaimed
	for i := range reclaimed {
		reclaimed[i] = false
	}
	if d.feedback == nil {
		return reclaimed
	}
	idxs := s.idxs[:0]
	for i := range vs {
		if !vs[i].flagged {
			continue
		}
		if vs[i].conf >= cfg.FeedbackOverride && cfg.FeedbackOverride > 0 {
			continue
		}
		idxs = append(idxs, i)
	}
	s.idxs = idxs
	if len(idxs) == 0 {
		return reclaimed
	}
	setStage(labelFeedback)
	defer setStage(labelBase)
	rows := s.resizeRows(len(idxs))
	for t, i := range idxs {
		p := ps[i]
		s.vec = features.VectorDirectInto(
			features.ExtractAll(p.Rects, p.Window), d.feedback.slots, s.vec)
		row := d.feedback.scaler.ApplyInto(s.vec, s.rowSlot(t))
		s.setRow(t, row)
		rows[t] = row
	}
	dec := s.resizeDec(len(idxs))
	d.feedback.model.DecisionBatchInto(rows, dec)
	for t, i := range idxs {
		if dec[t] < -cfg.FeedbackMargin {
			reclaimed[i] = true
		}
	}
	return reclaimed
}

// ClassifyBatch evaluates many standalone clips at once, returning each
// clip's predicted label (after the feedback kernel when present). One
// configuration snapshot covers the whole batch; its chunks run across the
// configured workers, each through the flat batched decision path behind
// the verdict memo. Safe for concurrent use.
func (d *Detector) ClassifyBatch(ps []*clip.Pattern) []clip.Label {
	cfg := d.config()
	out := make([]clip.Label, len(ps))
	evalChunks(ps, cfg.Workers, func(s *evalScratch, lo int, chunk []*clip.Pattern) {
		vs := d.evalBatchScratch(s, chunk, cfg)
		reclaimed := d.feedbackBatchScratch(s, chunk, vs, cfg)
		for i := range chunk {
			out[lo+i] = clip.NonHotspot
			if vs[i].flagged && !reclaimed[i] {
				out[lo+i] = clip.Hotspot
			}
		}
	})
	return out
}
