// Package simd provides runtime-CPU-dispatched float64 primitives for the
// numeric hot loops of the detector: the RBF-kernel dot product, the fused
// kernel-argument sweep over a flat support-vector block, min-max feature
// scaling, and scaled accumulation for density grids.
//
// # Bit-identity contract
//
// Every implementation of every primitive — hand-written assembly and the
// portable Go reference alike — performs the identical IEEE-754 operations
// in the identical association order, so results are bit-for-bit equal
// regardless of which implementation the dispatcher selects. For the
// reductions (Dot, and the per-row dot inside KernelArgs) that order is the
// fixed 8-lane blocked tree:
//
//	lane k accumulates a[i+k]*b[i+k] for i = 0, 8, 16, ...   (k = 0..7)
//	sum  = ((s0+s4) + (s2+s6)) + ((s1+s5) + (s3+s7))
//	tail = remaining <8 elements, added to sum one at a time in index order
//
// which is exactly how a 4-lane-double vector unit (AVX2: two YMM
// accumulators; SSE2/NEON: four two-lane accumulators) reduces naturally.
// Element-wise primitives (ScaleApply, AxpyAccum) have no ordering freedom:
// each output is a short fixed expression of the matching inputs.
//
// No implementation uses fused multiply-add: FMA skips the intermediate
// rounding of mul-then-add, so an FMA path could never be bit-identical to
// a two-rounding path, and forcing correctly-rounded software FMA on the
// portable reference would be ruinously slow on hardware without the
// instruction. Two roundings everywhere is the contract.
//
// The scalar decision path, the batched decision path, the SMO solver, and
// every scan path in internal/core funnel through these primitives, which
// is what keeps reports and model artifacts byte-identical across CPUs and
// across the HOTSPOT_NOSIMD knob.
//
// # Dispatch
//
// At init the package probes the CPU and selects the fastest available
// implementation: "avx2" or "sse2" on amd64, "neon" on arm64, "portable"
// elsewhere. Setting HOTSPOT_NOSIMD to any non-empty value forces
// "portable" and hides the accelerated implementations from Available —
// the dedicated CI lane uses it to prove the fallback end to end. Tests
// switch implementations with Use; concurrent readers always observe a
// complete implementation (the active pointer is swapped atomically).
package simd

import (
	"fmt"
	"os"
	"sync/atomic"
)

// NoSIMDEnv is the environment variable that, when set to any non-empty
// value at process start, forces the portable reference implementation and
// hides the accelerated ones.
const NoSIMDEnv = "HOTSPOT_NOSIMD"

// impl bundles one complete implementation of the primitive set. The
// functions are called with pre-trimmed, non-empty operands (the exported
// wrappers normalize lengths), and KernelArgs additionally with
// len(flat) == len(dst)*len(x) and len(x) >= 1.
type impl struct {
	name       string
	dot        func(a, b []float64) float64
	kernelArgs func(dst, norms, flat, x []float64, xn float64)
	scaleApply func(dst, row, lo, hi []float64)
	axpyAccum  func(dst, x []float64, alpha float64)
}

var portableImpl = impl{
	name:       "portable",
	dot:        dotPortable,
	kernelArgs: kernelArgsPortable,
	scaleApply: scaleApplyPortable,
	axpyAccum:  axpyAccumPortable,
}

// available lists the implementations usable on this CPU, fastest first,
// always ending with portable. Fixed after init.
var available []*impl

// active is the dispatched implementation; swapped atomically by Use.
var active atomic.Pointer[impl]

func init() {
	if os.Getenv(NoSIMDEnv) == "" {
		available = archImpls()
	}
	available = append(available, &portableImpl)
	active.Store(available[0])
}

// Active returns the name of the currently dispatched implementation.
func Active() string { return active.Load().name }

// Available returns the implementation names usable on this CPU, fastest
// first; "portable" is always last. Under HOTSPOT_NOSIMD only "portable"
// is reported.
func Available() []string {
	names := make([]string, len(available))
	for i, im := range available {
		names[i] = im.name
	}
	return names
}

// Use switches the dispatched implementation by name. It is intended for
// tests and diagnostics; the swap is atomic, so concurrent primitive calls
// always see one complete implementation.
func Use(name string) error {
	for _, im := range available {
		if im.name == name {
			active.Store(im)
			return nil
		}
	}
	return fmt.Errorf("simd: implementation %q not available on this CPU (have %v)", name, Available())
}

// Dot returns the inner product of a and b over their common prefix
// (operands are trimmed to the shorter length), computed in the fixed
// 8-lane blocked association order.
func Dot(a, b []float64) float64 {
	if len(a) > len(b) {
		a = a[:len(b)]
	} else {
		b = b[:len(a)]
	}
	if len(a) == 0 {
		return 0
	}
	return active.Load().dot(a, b)
}

// KernelArgs computes the unclamped squared-distance kernel arguments of
// one query against a flat block of support-vector rows:
//
//	dst[k] = norms[k] + xn - 2*Dot(flat[k*dim:(k+1)*dim], x)
//
// with dim = len(x), for k < rows where rows = min(len(dst), len(norms),
// len(flat)/dim). dst[rows:] is left untouched. Callers clamp negatives to
// zero themselves (the clamp is branchy and fuses better with the exp loop
// that always follows).
func KernelArgs(dst, norms, flat, x []float64, xn float64) {
	rows := min(len(dst), len(norms))
	dim := len(x)
	if dim > 0 {
		if r := len(flat) / dim; r < rows {
			rows = r
		}
	}
	if rows == 0 {
		return
	}
	dst, norms = dst[:rows], norms[:rows]
	if dim == 0 {
		for k := range dst {
			dst[k] = norms[k] + xn
		}
		return
	}
	active.Load().kernelArgs(dst, norms, flat[:rows*dim], x, xn)
}

// ScaleApply min-max scales one row: dst[i] = (row[i]-lo[i])/(hi[i]-lo[i])
// when the range hi[i]-lo[i] is positive, and exactly +0 otherwise, for
// i < n where n = min of the four lengths. dst[n:] is left untouched.
func ScaleApply(dst, row, lo, hi []float64) {
	n := min(len(dst), len(row), len(lo), len(hi))
	if n == 0 {
		return
	}
	active.Load().scaleApply(dst[:n], row[:n], lo[:n], hi[:n])
}

// AxpyAccum accumulates dst[i] += alpha*x[i] (multiply rounded first, then
// the add — two roundings, matching the portable expression) over the
// common prefix of dst and x.
func AxpyAccum(dst, x []float64, alpha float64) {
	n := min(len(dst), len(x))
	if n == 0 {
		return
	}
	active.Load().axpyAccum(dst[:n], x[:n], alpha)
}
