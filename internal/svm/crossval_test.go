package svm

import (
	"reflect"
	"testing"
)

// TestStratifiedFolds checks the fold assignment on labelled sets of 40+
// rows at several fold counts: every row lands in [0,k), each fold holds
// each class's share to within one row, a fixed seed repeats the
// assignment and another seed moves it.
func TestStratifiedFolds(t *testing.T) {
	for _, tc := range []struct{ rows, pos, k int }{
		{40, 20, 2},
		{41, 13, 3},
		{64, 9, 4},
		{100, 50, 5},
		{57, 56, 7},
	} {
		y := make([]int, tc.rows)
		for i := range y {
			y[i] = -1
		}
		// Spread the positives over the rows rather than packing them
		// at the front.
		for j := 0; j < tc.pos; j++ {
			y[j*tc.rows/tc.pos] = +1
		}
		const seed = 7
		fold := StratifiedFolds(y, tc.k, seed)
		if len(fold) != tc.rows {
			t.Fatalf("%+v: %d assignments for %d rows", tc, len(fold), tc.rows)
		}
		counts := make([][2]int, tc.k)
		for i, f := range fold {
			if f < 0 || f >= tc.k {
				t.Fatalf("%+v: row %d in fold %d, want [0,%d)", tc, i, f, tc.k)
			}
			if y[i] > 0 {
				counts[f][1]++
			} else {
				counts[f][0]++
			}
		}
		nClass := [2]int{tc.rows - tc.pos, tc.pos}
		for f, c := range counts {
			for class, n := range c {
				lo, hi := nClass[class]/tc.k, (nClass[class]+tc.k-1)/tc.k
				if n < lo || n > hi {
					t.Fatalf("%+v: fold %d holds %d of class %d's %d rows, want %d..%d",
						tc, f, n, class, nClass[class], lo, hi)
				}
			}
		}
		if again := StratifiedFolds(y, tc.k, seed); !reflect.DeepEqual(again, fold) {
			t.Fatalf("%+v: seed %d gave two assignments", tc, seed)
		}
		if other := StratifiedFolds(y, tc.k, seed+1); reflect.DeepEqual(other, fold) {
			t.Fatalf("%+v: seeds %d and %d gave the same assignment", tc, seed, seed+1)
		}
	}
}
