package svm

import (
	"math"
	"runtime"
	"sync"

	"hotspot/internal/simd"
	"hotspot/internal/workerpanic"
)

// batchChunkRows is the minimum number of rows each worker goroutine gets
// before DecisionBatch fans out; smaller batches stay on the caller's
// goroutine. 16 rows is a few hundred microseconds of kernel work on a
// mid-sized model — far above goroutine overhead — and lets a batch of 64
// spread across four cores.
const batchChunkRows = 16

// normPool recycles the per-batch query-norm scratch buffer.
var normPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 256)
		return &s
	},
}

// argsPool recycles the per-range kernel-argument scratch buffer (one
// float64 per support vector). Pooled rather than stack-allocated because
// the buffer is passed through the simd dispatch's indirect call, which
// forces it to escape.
var argsPool = sync.Pool{
	New: func() any {
		s := make([]float64, 0, 256)
		return &s
	},
}

// DecisionBatch evaluates the decision function for every row of xs in one
// pass over the flat support-vector matrix: per-SV norms are precomputed,
// query norms are computed once into a pooled scratch buffer, each query
// sweeps the whole support-vector block with one fused simd.KernelArgs
// call, and large batches fan out across CPUs. The result is bit-for-bit
// identical to calling Decision on each row.
func (m *Model) DecisionBatch(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	m.DecisionBatchInto(xs, out)
	return out
}

// DecisionBatchInto is DecisionBatch writing into a caller-provided slice
// (len(out) must be >= len(xs)), for callers that reuse result buffers. A
// panic in a fanned-out worker is raised again on the caller's goroutine
// as a *workerpanic.Error once every worker has returned.
func (m *Model) DecisionBatchInto(xs [][]float64, out []float64) {
	n := len(xs)
	if n == 0 {
		return
	}
	m.prepare()
	out = out[:n]
	qnp := normPool.Get().(*[]float64)
	qn := (*qnp)[:0]
	for _, x := range xs {
		qn = append(qn, sqNormDim(x, m.dim))
	}

	workers := runtime.GOMAXPROCS(0)
	if limit := n / batchChunkRows; workers > limit {
		workers = limit
	}
	if workers <= 1 {
		m.decideRange(xs, qn, out)
	} else {
		chunk := (n + workers - 1) / workers
		var g workerpanic.Group
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			g.Go(func() { m.decideRange(xs[lo:hi], qn[lo:hi], out[lo:hi]) })
		}
		g.Wait()
	}
	*qnp = qn
	normPool.Put(qnp)
}

// decideRange evaluates a slice of queries. Each query fills a pooled
// kernel-argument buffer with one simd.KernelArgs sweep over the flat
// support-vector block, then accumulates coef[k]*exp(-gamma*arg[k]) in
// support-vector order — the same dot, the same norms[k]+xn-2d expression,
// the same clamp, and the same summation order as decideOne, so the result
// is bit-identical to the scalar path on every dispatch.
func (m *Model) decideRange(xs [][]float64, qn, out []float64) {
	dim := m.dim
	flat := m.flat
	norms := m.norms
	coef := m.Coef
	gamma := m.Gamma
	ap := argsPool.Get().(*[]float64)
	args := *ap
	if cap(args) < len(coef) {
		args = make([]float64, len(coef))
	}
	args = args[:len(coef)]
	for i, x := range xs {
		if len(x) < dim {
			// Ragged short query: the per-SV scalar path trims each dot to
			// the query length; the fused sweep assumes full-stride rows.
			out[i] = m.decideOne(x, qn[i])
			continue
		}
		simd.KernelArgs(args, norms, flat, x[:dim], qn[i])
		var s float64
		for k, a := range args {
			if a < 0 {
				a = 0
			}
			s += coef[k] * math.Exp(-gamma*a)
		}
		out[i] = s - m.Rho
	}
	*ap = args
	argsPool.Put(ap)
}
