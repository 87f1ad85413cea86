package svm

import (
	"math"
	"math/rand"
	"testing"
)

// selectPairReference is the WSS1 maximal-violating-pair loop written with
// explicit I_up/I_low membership tests on y, alpha and C, as selectPair
// was before it read the penalty arrays. FuzzSelectPair holds the two
// equal.
func (s *solver) selectPairReference() (i, j int, gap float64) {
	i, j = -1, -1
	gmax := math.Inf(-1)
	gmin := math.Inf(1)
	for _, t := range s.active {
		// I_up: y=+1 && a<C, or y=-1 && a>0.
		if (s.y[t] > 0 && s.alpha[t] < s.cBound[t]) || (s.y[t] < 0 && s.alpha[t] > 0) {
			if v := -s.y[t] * s.grad[t]; v > gmax {
				gmax = v
				i = t
			}
		}
		// I_low: y=+1 && a>0, or y=-1 && a<C.
		if (s.y[t] > 0 && s.alpha[t] > 0) || (s.y[t] < 0 && s.alpha[t] < s.cBound[t]) {
			if v := -s.y[t] * s.grad[t]; v < gmin {
				gmin = v
				j = t
			}
		}
	}
	if i == -1 || j == -1 {
		return 0, 0, 0
	}
	return i, j, gmax - gmin
}

// randSolver builds a random finite solver state over n variables: mixed
// labels and per-class bounds, each alpha at 0, at its bound or strictly
// between, gradients that often tie or are signed zeros, and a shrunken
// active subset in arbitrary order. The kernel cache is real, so update
// can step the state.
func randSolver(rng *rand.Rand, n int) *solver {
	const dim, gamma = 3, 0.5
	x := randRows(rng, n, dim)
	flat, norms, _ := flatten(x)
	s := &solver{
		x: x, n: n, dim: dim, flat: flat, norms: norms,
		gamma:  gamma,
		tol:    DefaultParams.Tol,
		y:      make([]float64, n),
		alpha:  make([]float64, n),
		grad:   make([]float64, n),
		cBound: make([]float64, n),
		upPen:  make([]float64, n),
		lowPen: make([]float64, n),
		cache:  newKernelCache(flat, norms, n, dim, gamma, 0, nil),
	}
	c := []float64{0.5, 1, 10, 1000}[rng.Intn(4)]
	weight := map[float64]float64{+1: 1 + float64(rng.Intn(3)), -1: 1}
	for t := 0; t < n; t++ {
		s.y[t] = float64(2*rng.Intn(2) - 1)
		s.cBound[t] = c * weight[s.y[t]]
		switch rng.Intn(3) {
		case 0:
			s.alpha[t] = 0
		case 1:
			s.alpha[t] = s.cBound[t]
		default:
			s.alpha[t] = s.cBound[t] * (0.01 + 0.98*rng.Float64())
		}
		switch rng.Intn(4) {
		case 0:
			s.grad[t] = float64(rng.Intn(5) - 2) // ties across variables
		case 1:
			s.grad[t] = math.Copysign(0, float64(2*rng.Intn(2)-1))
		default:
			s.grad[t] = rng.NormFloat64() * 10
		}
		s.setPenalties(t)
	}
	s.active = rng.Perm(n)[:1+rng.Intn(n)]
	return s
}

// FuzzSelectPair asserts that the penalty-array selectPair returns the
// reference loop's i, j and gap on random solver states, and keeps doing
// so while update steps the state (update is what refreshes the
// penalties). Gaps compare with ==, so signed zeros count as equal.
func FuzzSelectPair(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3))
	f.Add(int64(7), uint8(1), uint8(0))
	f.Add(int64(-3), uint8(90), uint8(15))
	f.Add(int64(42), uint8(33), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		s := randSolver(rng, int(n)%96+1)
		for step := 0; ; step++ {
			i, j, gap := s.selectPair()
			ri, rj, rgap := s.selectPairReference()
			if i != ri || j != rj || gap != rgap {
				t.Fatalf("step %d: selectPair = (%d, %d, %v), reference (%d, %d, %v)", step, i, j, gap, ri, rj, rgap)
			}
			if gap <= 0 || step >= int(steps)%16 {
				return
			}
			s.update(i, j)
		}
	})
}
