package core

import (
	"context"
	"runtime/metrics"
	"runtime/pprof"
	"sync"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/geom"
)

// evalScratch is the reusable arena of the clip-evaluation fast path: every
// buffer the batched evaluation loop needs, held across chunks so the
// steady state allocates nothing. A scratch belongs to one goroutine at a
// time; hot callers (DetectContext's chunk loop, tileEvaluator, the
// feedback self-evaluation) acquire one from the pool and keep it for the
// whole run. No buffer handed out by a scratch may be retained past the
// next call that uses the scratch.
type evalScratch struct {
	// pats/ps back the chunk's materialized patterns (FromLayoutInto reuses
	// each slot's Rects capacity chunk after chunk).
	pats []clip.Pattern
	ps   []*clip.Pattern
	// vs holds the batch verdicts returned by evalBatchScratch.
	vs []batchVerdict
	// live indexes the clips the verdict memo could not resolve.
	live []int
	// hashes holds the live clips' memo hash keys (parallel to live).
	hashes []uint64
	// exs holds the live clips' extracted feature material.
	exs []features.Extracted
	// keys holds the live clips' canonical topology keys (routed mode).
	keys []string
	// rows points scaled feature rows at the batched SVM decision; rowbuf
	// is the persistent per-slot storage behind them.
	rows   [][]float64
	rowbuf [][]float64
	// vec and used are the vectorization scratch (VectorInto).
	vec  []float64
	used []bool
	// dec and best hold batched decision values and per-clip confidences.
	dec  []float64
	best []float64
	// core holds one clip's core-clipped geometry (serial extraction).
	core []geom.Rect
	// reclaimed and idxs serve the feedback pass.
	reclaimed []bool
	idxs      []int
	// routes holds the routed-mode kernel routes.
	routes [][]int
	// alive backs the routed-mode wave worklist.
	alive []int
	// sample reads /gc/heap/allocs:bytes for the alloc-per-clip histogram.
	sample [1]metrics.Sample
}

// scratchPool recycles evaluation arenas across runs and tiles.
var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

func getScratch() *evalScratch  { return scratchPool.Get().(*evalScratch) }
func putScratch(s *evalScratch) { scratchPool.Put(s) }

// patterns returns n reusable pattern slots (growing the backing store only
// when the chunk size exceeds every previous one).
func (s *evalScratch) patterns(n int) []*clip.Pattern {
	if cap(s.pats) < n {
		s.pats = make([]clip.Pattern, n)
		s.ps = make([]*clip.Pattern, n)
		for i := range s.pats {
			s.ps[i] = &s.pats[i]
		}
	}
	return s.ps[:n]
}

// verdicts returns the verdict buffer resized to n, zeroed to the
// "unflagged, no kernel" state.
func (s *evalScratch) verdicts(n int) []batchVerdict {
	if cap(s.vs) < n {
		s.vs = make([]batchVerdict, n)
	}
	vs := s.vs[:n]
	for i := range vs {
		vs[i] = batchVerdict{kidx: -1}
	}
	s.vs = vs
	return vs
}

// rowSlot returns row storage slot t (a zero-length slice with whatever
// capacity it accumulated); callers append into it and hand the result back
// via setRow so the grown capacity is kept.
func (s *evalScratch) rowSlot(t int) []float64 {
	for len(s.rowbuf) <= t {
		s.rowbuf = append(s.rowbuf, nil)
	}
	return s.rowbuf[t][:0]
}

// setRow records slot t's (possibly reallocated) storage.
func (s *evalScratch) setRow(t int, row []float64) {
	s.rowbuf[t] = row
}

// resizeRows returns the row-pointer slice resized to n.
func (s *evalScratch) resizeRows(n int) [][]float64 {
	if cap(s.rows) < n {
		s.rows = make([][]float64, n)
	}
	s.rows = s.rows[:n]
	return s.rows
}

// resizeDec returns the decision buffer resized to n.
func (s *evalScratch) resizeDec(n int) []float64 {
	if cap(s.dec) < n {
		s.dec = make([]float64, n)
	}
	s.dec = s.dec[:n]
	return s.dec
}

// Per-stage pprof label contexts, built once: labeling a batch stage is a
// single runtime store (pprof.Do would allocate a label map per call, which
// the zero-allocation contract forbids). CPU profiles of a scan then split
// samples across classify/extract/svm/feedback via the "stage" label.
var (
	labelBase     = context.Background()
	labelClassify = pprof.WithLabels(labelBase, pprof.Labels("stage", "classify"))
	labelExtract  = pprof.WithLabels(labelBase, pprof.Labels("stage", "extract"))
	labelSVM      = pprof.WithLabels(labelBase, pprof.Labels("stage", "svm"))
	labelFeedback = pprof.WithLabels(labelBase, pprof.Labels("stage", "feedback"))
)

// setStage tags the current goroutine (and any goroutine it spawns, i.e.
// parallelFor workers) with a pipeline-stage pprof label.
func setStage(ctx context.Context) { pprof.SetGoroutineLabels(ctx) }

// allocBytesName is the runtime metric behind eval.alloc_bytes_per_clip.
const allocBytesName = "/gc/heap/allocs:bytes"

// allocBytes samples cumulative heap allocation. The reading is
// process-wide, so with concurrent evaluation goroutines the derived
// per-clip figure is an approximation; it is recorded only when a registry
// is attached.
func (s *evalScratch) allocBytes() uint64 {
	s.sample[0].Name = allocBytesName
	metrics.Read(s.sample[:])
	if s.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.sample[0].Value.Uint64()
}
