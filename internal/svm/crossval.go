package svm

import "math/rand"

// StratifiedFolds assigns each labelled row to one of k folds: each class
// is spread round-robin over the folds in an order shuffled by seed, so
// every fold carries (as nearly as possible) the full class ratio. The
// assignment is deterministic for a fixed (y, folds, seed).
func StratifiedFolds(y []int, folds int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, t := range y {
		if t > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	fold := make([]int, len(y))
	for i, idx := range pos {
		fold[idx] = i % folds
	}
	for i, idx := range neg {
		fold[idx] = i % folds
	}
	return fold
}
