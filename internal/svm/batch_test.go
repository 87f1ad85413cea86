package svm

import (
	"math"
	"math/rand"
	"testing"
)

// randModel builds a synthetic (not trained) model with nSV support
// vectors of the given dimension — decision evaluation only depends on the
// model fields, so this exercises the scalar/batch paths across shapes
// training would rarely produce.
func randModel(rng *rand.Rand, nSV, dim int) *Model {
	m := &Model{Gamma: 0.01 + rng.Float64()*2, Rho: rng.NormFloat64()}
	for i := 0; i < nSV; i++ {
		sv := make([]float64, dim)
		for j := range sv {
			sv[j] = rng.NormFloat64() * 3
		}
		m.SVs = append(m.SVs, sv)
		m.Coef = append(m.Coef, rng.NormFloat64()*5)
	}
	return m
}

func randRows(rng *rand.Rand, n, dim int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 3
		}
	}
	return rows
}

// ulpDiff returns the distance in representable float64 steps between a
// and b (0 means bit-identical).
func ulpDiff(a, b float64) uint64 {
	if a == b {
		return 0
	}
	ia := int64(math.Float64bits(math.Abs(a)))
	ib := int64(math.Float64bits(math.Abs(b)))
	if math.Signbit(a) != math.Signbit(b) {
		return uint64(ia + ib)
	}
	if ia > ib {
		return uint64(ia - ib)
	}
	return uint64(ib - ia)
}

func checkBatchMatchesScalar(t *testing.T, m *Model, xs [][]float64) {
	t.Helper()
	batch := m.DecisionBatch(xs)
	if len(batch) != len(xs) {
		t.Fatalf("DecisionBatch returned %d values for %d rows", len(batch), len(xs))
	}
	for i, x := range xs {
		scalar := m.Decision(x)
		if d := ulpDiff(scalar, batch[i]); d > 1 {
			t.Fatalf("row %d: scalar %v vs batch %v (%d ulp apart)", i, scalar, batch[i], d)
		}
		// The bias-shifted paths must agree too.
		for _, bias := range []float64{-0.5, 0, 0.5} {
			want := m.PredictWithBias(x, bias)
			got := -1
			if batch[i] >= bias {
				got = +1
			}
			if got != want {
				t.Fatalf("row %d bias %v: batch predicts %d, scalar %d", i, bias, got, want)
			}
		}
	}
}

// TestDecisionBatchMatchesScalar sweeps model and batch shapes, including
// sizes that exercise the 4-query blocks, the scalar tail, and the
// parallel fan-out path.
func TestDecisionBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct{ nSV, dim, batch int }{
		{1, 1, 1},
		{3, 2, 5},
		{17, 9, 4},
		{64, 33, 63},
		{128, 21, 130},
		{5, 16, 257}, // large batch: exercises goroutine fan-out
	} {
		m := randModel(rng, tc.nSV, tc.dim)
		checkBatchMatchesScalar(t, m, randRows(rng, tc.batch, tc.dim))
	}
}

// TestDecisionBatchTrainedModel repeats the equivalence check on a model
// produced by Train (SVs aliasing training rows, realistic coefficients).
func TestDecisionBatchTrainedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []int
	for i := 0; i < 120; i++ {
		px, py := rng.Float64()*2-1, rng.Float64()*2-1
		x = append(x, []float64{px, py})
		if px*py > 0 {
			y = append(y, +1)
		} else {
			y = append(y, -1)
		}
	}
	m, err := Train(x, y, Params{C: 10, Gamma: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesScalar(t, m, randRows(rng, 97, 2))
}

// TestDecisionBatchEmptyAndInto covers the zero-row path and the
// caller-buffer variant.
func TestDecisionBatchEmptyAndInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randModel(rng, 4, 3)
	if out := m.DecisionBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch: %v", out)
	}
	xs := randRows(rng, 6, 3)
	buf := make([]float64, 16)
	m.DecisionBatchInto(xs, buf)
	want := m.DecisionBatch(xs)
	for i := range xs {
		if buf[i] != want[i] {
			t.Fatalf("Into[%d] = %v, want %v", i, buf[i], want[i])
		}
	}
}

// FuzzDecisionBatch fuzzes model and batch shapes plus the value stream,
// asserting the batched path never drifts from the scalar one by more than
// 1 ulp.
func FuzzDecisionBatch(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(9))
	f.Add(int64(99), uint8(1), uint8(1), uint8(1))
	f.Add(int64(-7), uint8(40), uint8(12), uint8(65))
	f.Fuzz(func(t *testing.T, seed int64, nSV, dim, batch uint8) {
		if nSV == 0 || dim == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		m := randModel(rng, int(nSV)%48+1, int(dim)%24+1)
		xs := randRows(rng, int(batch), len(m.SVs[0]))
		dec := m.DecisionBatch(xs)
		for i, x := range xs {
			scalar := m.Decision(x)
			if d := ulpDiff(scalar, dec[i]); d > 1 {
				t.Fatalf("row %d: scalar %v vs batch %v (%d ulp)", i, scalar, dec[i], d)
			}
		}
	})
}
