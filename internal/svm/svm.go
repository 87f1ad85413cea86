// Package svm implements the two-class soft-margin C-type support vector
// machine with a Gaussian radial basis kernel (§III-D1), trained by
// sequential minimal optimization with maximal-violating-pair working-set
// selection and the standard shrinking heuristic — the same model class
// and algorithm family as LIBSVM [20], which the paper links against,
// reimplemented on the standard library.
//
// The hot paths work on a flat data layout: training rows and support
// vectors live in one contiguous []float64 with stride dim, squared norms
// are precomputed per row, and every RBF evaluation is a cached-norm dot
// product (see kernel.go). Inference over many rows should go through
// Model.DecisionBatch, which reuses scratch buffers and fans out across
// CPUs (see batch.go).
package svm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hotspot/internal/obs"
)

// Params configures one training run.
type Params struct {
	// C is the soft-margin penalty (Eq. 3).
	C float64
	// Gamma is the RBF kernel width: k(x, z) = exp(-Gamma * ||x-z||^2).
	Gamma float64
	// Tol is the KKT violation tolerance for the stopping criterion.
	Tol float64
	// MaxIter bounds the number of SMO pair updates (<= 0: automatic).
	MaxIter int
	// WeightPos and WeightNeg scale C per class (1 when zero), the usual
	// remedy for residual class imbalance.
	WeightPos, WeightNeg float64
	// CacheBytes bounds the kernel-row LRU cache (<= 0: DefaultCacheBytes).
	CacheBytes int
	// Obs receives training metrics (SMO iterations, kernel-cache misses,
	// support-vector counts, training wall time). nil disables
	// instrumentation at zero cost — the disabled path adds no allocations
	// to the SMO inner loop.
	Obs *obs.Registry
}

// DefaultParams mirror the paper's initial values: C = 1000, gamma = 0.01.
var DefaultParams = Params{C: 1000, Gamma: 0.01, Tol: 1e-3}

// Model is a trained SVM. The exported fields are the persisted
// representation; the flat support-vector layout and cached norms that the
// decision paths use are derived lazily (and at most once) from SVs, so
// models restored from older serialized forms pick up the fast path on
// first use. Do not mutate SVs/Coef/Gamma after the first Decision call.
type Model struct {
	// SVs are the support vectors.
	SVs [][]float64
	// Coef holds alpha_i * y_i for each support vector.
	Coef []float64
	// Rho is the decision offset: f(x) = sum coef_i k(sv_i, x) - Rho.
	Rho float64
	// Gamma is the kernel width the model was trained with.
	Gamma float64
	// Iters reports how many SMO iterations training took.
	Iters int

	// Flat fast-path state, built by prepare().
	prepOnce sync.Once
	flat     []float64 // support vectors, contiguous, stride dim
	norms    []float64 // per-SV squared norms
	dim      int
}

// prepare builds the flat support-vector layout on first use.
func (m *Model) prepare() {
	m.prepOnce.Do(func() {
		m.flat, m.norms, m.dim = flatten(m.SVs)
	})
}

// ErrNoData is returned when a class is missing from the training set.
var ErrNoData = errors.New("svm: training data must contain both classes")

// Train fits a C-SVM on the given rows and +1/-1 labels.
func Train(x [][]float64, y []int, p Params) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("svm: bad training set (%d rows, %d labels)", n, len(y))
	}
	pos, neg := 0, 0
	for _, t := range y {
		switch t {
		case +1:
			pos++
		case -1:
			neg++
		default:
			return nil, fmt.Errorf("svm: label must be +1 or -1, got %d", t)
		}
	}
	if pos == 0 || neg == 0 {
		return nil, ErrNoData
	}
	if p.C <= 0 {
		p.C = DefaultParams.C
	}
	if p.Gamma <= 0 {
		p.Gamma = DefaultParams.Gamma
	}
	if p.Tol <= 0 {
		p.Tol = DefaultParams.Tol
	}
	if p.WeightPos <= 0 {
		p.WeightPos = 1
	}
	if p.WeightNeg <= 0 {
		p.WeightNeg = 1
	}
	maxIter := p.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * n
		if maxIter < 20000 {
			maxIter = 20000
		}
	}

	start := time.Now()
	flat, norms, dim := flatten(x)
	s := &solver{
		x: x, n: n, dim: dim, flat: flat, norms: norms,
		gamma:  p.Gamma,
		tol:    p.Tol,
		y:      make([]float64, n),
		alpha:  make([]float64, n),
		grad:   make([]float64, n),
		cBound: make([]float64, n),
		upPen:  make([]float64, n),
		lowPen: make([]float64, n),
		active: make([]int, n),
		cache:  newKernelCache(flat, norms, n, dim, p.Gamma, p.CacheBytes, p.Obs.Counter("svm.kernel_cache_misses")),
	}
	for i, t := range y {
		s.y[i] = float64(t)
		if t > 0 {
			s.cBound[i] = p.C * p.WeightPos
		} else {
			s.cBound[i] = p.C * p.WeightNeg
		}
		s.grad[i] = -1 // gradient of 1/2 a'Qa - e'a at a = 0
		s.active[i] = i
		s.setPenalties(i)
	}

	// SMO main loop with shrinking: every shrinkPeriod iterations,
	// bound-clamped variables that cannot re-enter the working set are
	// deactivated so selectPair and the gradient update stop scanning
	// them. Apparent convergence on the shrunken problem triggers a full
	// gradient reconstruction and a re-check over every variable.
	shrinkPeriod := n
	if shrinkPeriod > 1000 {
		shrinkPeriod = 1000
	}
	counter := shrinkPeriod
	iters := 0
	for iters < maxIter {
		if counter == 0 {
			s.shrink()
			counter = shrinkPeriod
		}
		counter--
		i, j, gap := s.selectPair()
		if gap < p.Tol {
			if len(s.active) == n {
				break
			}
			// Converged on the shrunken problem only: reconstruct the
			// gradients of the shrunken variables and re-check in full.
			s.reconstructGradient()
			s.activateAll()
			counter = 1
			if i, j, gap = s.selectPair(); gap < p.Tol {
				break
			}
		}
		s.update(i, j)
		iters++
	}
	if len(s.active) < n {
		// Iteration budget exhausted while shrunk: the inactive gradients
		// are stale and buildModel's rho estimate needs all of them.
		s.reconstructGradient()
		s.activateAll()
	}
	m, err := s.buildModel(iters, p)
	if err == nil {
		p.Obs.Counter("svm.trainings").Inc()
		p.Obs.Counter("svm.smo_iterations").Add(int64(iters))
		p.Obs.Counter("svm.support_vectors").Add(int64(len(m.SVs)))
		p.Obs.Histogram("svm.train_seconds").ObserveDuration(time.Since(start))
	}
	return m, err
}

type solver struct {
	x      [][]float64 // original rows (aliased into the model's SVs)
	n, dim int
	flat   []float64 // rows, contiguous, stride dim
	norms  []float64 // per-row squared norms
	y      []float64
	alpha  []float64
	grad   []float64 // grad_i = sum_j Q_ij alpha_j - 1
	cBound []float64
	// upPen and lowPen encode each variable's membership in WSS1's I_up
	// and I_low sets as 0 (member) or +Inf (not a member), so selectPair
	// scans without membership branches. Membership depends only on
	// alpha, so update refreshes the two entries whose alpha it changes.
	upPen  []float64
	lowPen []float64
	gamma  float64
	tol    float64
	cache  *kernelCache
	// active holds the working indices; shrunken variables are removed
	// and their grad entries go stale until reconstructGradient.
	active []int
	// unshrunk is set once the close-to-convergence full reconstruction
	// has run (LIBSVM's one-shot unshrink).
	unshrunk bool
}

// inUp reports whether variable t is in I_up: y=+1 && a<C, or y=-1 && a>0.
func (s *solver) inUp(t int) bool {
	return (s.y[t] > 0 && s.alpha[t] < s.cBound[t]) || (s.y[t] < 0 && s.alpha[t] > 0)
}

// inLow reports whether variable t is in I_low: y=+1 && a>0, or y=-1 && a<C.
func (s *solver) inLow(t int) bool {
	return (s.y[t] > 0 && s.alpha[t] > 0) || (s.y[t] < 0 && s.alpha[t] < s.cBound[t])
}

// setPenalties recomputes variable t's I_up/I_low penalties from its alpha.
func (s *solver) setPenalties(t int) {
	s.upPen[t], s.lowPen[t] = math.Inf(1), math.Inf(1)
	if s.inUp(t) {
		s.upPen[t] = 0
	}
	if s.inLow(t) {
		s.lowPen[t] = 0
	}
}

// selectPair picks the maximal violating pair (WSS1 of Fan, Chen, Lin)
// over the active set: i maximizes -y G over I_up and j minimizes it over
// I_low, each the first such index in active order. A non-member's
// penalty turns its candidate value into -Inf for i or +Inf for j (NaN
// for an infinite gradient), none of which beats the running extreme, so
// one pass of two compares per variable selects exactly the pair that
// membership tests would.
func (s *solver) selectPair() (i, j int, gap float64) {
	i, j = -1, -1
	gmax := math.Inf(-1)
	gmin := math.Inf(1)
	// Cutting every slice to len(y) lets one bounds check per variable
	// cover all four, which keeps the loop's state in registers.
	y := s.y
	grad, upPen, lowPen := s.grad[:len(y)], s.upPen[:len(y)], s.lowPen[:len(y)]
	for _, t := range s.active {
		v := -y[t] * grad[t]
		if u := v - upPen[t]; u > gmax {
			gmax, i = u, t
		}
		if l := v + lowPen[t]; l < gmin {
			gmin, j = l, t
		}
	}
	if i == -1 || j == -1 {
		return 0, 0, 0
	}
	return i, j, gmax - gmin
}

// update performs the two-variable analytic step on the pair (i, j).
func (s *solver) update(i, j int) {
	ki := s.cache.row(i)
	kj := s.cache.row(j)
	qii := ki[i]
	qjj := kj[j]
	qij := s.y[i] * s.y[j] * ki[j]
	eta := qii + qjj - 2*qij
	if eta <= 0 {
		eta = 1e-12
	}
	yi, yj := s.y[i], s.y[j]
	// Delta along the constraint y_i da_i + y_j da_j = 0.
	delta := (-yi*s.grad[i] + yj*s.grad[j]) / eta
	oldAi, oldAj := s.alpha[i], s.alpha[j]
	ai := oldAi + yi*delta
	aj := oldAj - yj*delta
	// Clip to the box.
	if ai < 0 {
		ai = 0
	} else if ai > s.cBound[i] {
		ai = s.cBound[i]
	}
	// Re-derive aj from the equality constraint, then clip and re-derive ai.
	aj = oldAj - yj*yi*(ai-oldAi)
	if aj < 0 {
		aj = 0
	} else if aj > s.cBound[j] {
		aj = s.cBound[j]
	}
	ai = oldAi - yi*yj*(aj-oldAj)
	if ai < 0 {
		ai = 0
	} else if ai > s.cBound[i] {
		ai = s.cBound[i]
	}
	// Snap to the box walls: the clip-and-rederive chain can leave an
	// alpha within rounding noise of a bound (e.g. 1e-16 instead of 0).
	// Such a variable stays formally free, keeps winning pair selection,
	// and its sub-ulp step vanishes against the partner's alpha — a
	// permanent stall. Landing exactly on the bound keeps the KKT sets
	// honest.
	ai = snapToBound(ai, s.cBound[i])
	aj = snapToBound(aj, s.cBound[j])
	dAi, dAj := ai-oldAi, aj-oldAj
	if dAi == 0 && dAj == 0 {
		return
	}
	s.alpha[i], s.alpha[j] = ai, aj
	s.setPenalties(i)
	s.setPenalties(j)
	// Gradient maintenance over the active set only; shrunken entries are
	// reconstructed on demand.
	yid, yjd := yi*dAi, yj*dAj
	y := s.y
	grad, ki, kj := s.grad[:len(y)], ki[:len(y)], kj[:len(y)] // as in selectPair
	for _, t := range s.active {
		grad[t] += y[t] * (yid*ki[t] + yjd*kj[t])
	}
}

// snapToBound collapses values within relative rounding noise of the box
// walls onto the walls themselves.
func snapToBound(v, c float64) float64 {
	const tol = 1e-12
	if v < c*tol {
		return 0
	}
	if v > c*(1-tol) {
		return c
	}
	return v
}

// shrink deactivates variables clamped at a bound whose gradient says they
// cannot rejoin the working set (Fan, Chen, Lin §4 / LIBSVM be_shrunk).
func (s *solver) shrink() {
	gmax1 := math.Inf(-1) // max over I_up of -y G
	gmax2 := math.Inf(-1) // max over I_low of y G
	for _, t := range s.active {
		if s.inUp(t) {
			if v := -s.y[t] * s.grad[t]; v > gmax1 {
				gmax1 = v
			}
		}
		if s.inLow(t) {
			if v := s.y[t] * s.grad[t]; v > gmax2 {
				gmax2 = v
			}
		}
	}
	if !s.unshrunk && gmax1+gmax2 <= s.tol*10 {
		// Close to convergence: reconstruct once and restart shrinking
		// from the full problem so the final gap check is exact.
		s.unshrunk = true
		s.reconstructGradient()
		s.activateAll()
		return
	}
	keep := s.active[:0]
	for _, t := range s.active {
		if !s.beShrunk(t, gmax1, gmax2) {
			keep = append(keep, t)
		}
	}
	if len(keep) < 2 {
		return // never shrink below a workable pair
	}
	s.active = keep
}

// beShrunk reports whether variable t is safely clamped at its bound.
func (s *solver) beShrunk(t int, gmax1, gmax2 float64) bool {
	switch {
	case s.alpha[t] >= s.cBound[t]: // upper bound
		if s.y[t] > 0 {
			return -s.grad[t] > gmax1
		}
		return -s.grad[t] > gmax2
	case s.alpha[t] <= 0: // lower bound
		if s.y[t] > 0 {
			return s.grad[t] > gmax2
		}
		return s.grad[t] > gmax1
	default: // free variables always stay active
		return false
	}
}

// reconstructGradient recomputes grad for every inactive variable from the
// current alphas: grad_t = sum_{a_j > 0} a_j y_t y_j k(t, j) - 1. Only
// nonzero alphas contribute, so the cost is #inactive x #SV dot products.
func (s *solver) reconstructGradient() {
	if len(s.active) == s.n {
		return
	}
	inactive := make([]bool, s.n)
	for i := range inactive {
		inactive[i] = true
	}
	for _, t := range s.active {
		inactive[t] = false
	}
	var sv []int
	for j := 0; j < s.n; j++ {
		if s.alpha[j] > 0 {
			sv = append(sv, j)
		}
	}
	for t := 0; t < s.n; t++ {
		if !inactive[t] {
			continue
		}
		xt := s.flat[t*s.dim : (t+1)*s.dim]
		nt := s.norms[t]
		g := -1.0
		for _, j := range sv {
			xj := s.flat[j*s.dim : (j+1)*s.dim]
			k := math.Exp(-s.gamma * kernelArg(nt, s.norms[j], dot(xt, xj)))
			g += s.alpha[j] * s.y[t] * s.y[j] * k
		}
		s.grad[t] = g
	}
}

// activateAll restores the full working set in index order (keeping the
// solver deterministic after an unshrink).
func (s *solver) activateAll() {
	s.active = s.active[:0]
	for t := 0; t < s.n; t++ {
		s.active = append(s.active, t)
	}
}

func (s *solver) buildModel(iters int, p Params) (*Model, error) {
	m := &Model{Gamma: p.Gamma, Iters: iters}
	// rho from free support vectors (0 < a < C): y_i grad_i ... standard:
	// rho = sum of y_i*grad_i over free SVs / count; fall back to midpoint.
	var sum float64
	nFree := 0
	lb, ub := math.Inf(-1), math.Inf(1)
	for t := range s.alpha {
		yg := s.y[t] * s.grad[t]
		switch {
		case s.alpha[t] > 0 && s.alpha[t] < s.cBound[t]:
			sum += yg
			nFree++
		case (s.y[t] > 0 && s.alpha[t] == 0) || (s.y[t] < 0 && s.alpha[t] == s.cBound[t]):
			if yg < ub {
				ub = yg
			}
		default:
			if yg > lb {
				lb = yg
			}
		}
	}
	if nFree > 0 {
		m.Rho = sum / float64(nFree)
	} else {
		m.Rho = (lb + ub) / 2
	}
	for t, a := range s.alpha {
		if a > 0 {
			m.SVs = append(m.SVs, s.x[t])
			m.Coef = append(m.Coef, a*s.y[t])
		}
	}
	if len(m.SVs) == 0 {
		return nil, errors.New("svm: training produced no support vectors")
	}
	m.prepare() // build the flat layout eagerly; loaded models do it lazily
	return m, nil
}

// Decision returns the raw decision value f(x); positive predicts class +1.
func (m *Model) Decision(x []float64) float64 {
	m.prepare()
	return m.decideOne(x, sqNormDim(x, m.dim))
}

// decideOne evaluates f(x) given x's precomputed squared norm. It is the
// single source of truth for the decision arithmetic: DecisionBatch's
// fused kernel-argument sweep performs the identical operations in the
// identical order, so scalar and batched results are bit-for-bit equal on
// every simd dispatch.
func (m *Model) decideOne(x []float64, xn float64) float64 {
	var sum float64
	dim := m.dim
	for i := range m.Coef {
		d := dot(m.flat[i*dim:(i+1)*dim], x)
		sum += m.Coef[i] * math.Exp(-m.Gamma*kernelArg(m.norms[i], xn, d))
	}
	return sum - m.Rho
}

// Predict returns the class of x: +1 or -1.
func (m *Model) Predict(x []float64) int {
	if m.Decision(x) >= 0 {
		return +1
	}
	return -1
}

// PredictWithBias classifies with the decision threshold shifted by bias:
// larger bias demands stronger evidence for the +1 class. Used to realize
// the accuracy/false-alarm operating points (ours_low / ours_med).
func (m *Model) PredictWithBias(x []float64, bias float64) int {
	if m.Decision(x) >= bias {
		return +1
	}
	return -1
}

// Confusion evaluates the model on a labelled set and returns the
// confusion counts, with +1 as the positive class (batched internally).
func (m *Model) Confusion(x [][]float64, y []int) (tp, fp, tn, fn int) {
	if len(x) == 0 {
		return 0, 0, 0, 0
	}
	for i, d := range m.DecisionBatch(x) {
		switch {
		case d >= 0 && y[i] > 0:
			tp++
		case d >= 0:
			fp++
		case y[i] > 0:
			fn++
		default:
			tn++
		}
	}
	return tp, fp, tn, fn
}

// Accuracy evaluates the model on a labelled set (batched internally).
func (m *Model) Accuracy(x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	dec := m.DecisionBatch(x)
	correct := 0
	for i, d := range dec {
		pred := -1
		if d >= 0 {
			pred = +1
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}
