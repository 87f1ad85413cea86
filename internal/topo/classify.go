package topo

import (
	"sort"
	"time"

	"hotspot/internal/geom"
	"hotspot/internal/obs"
)

// Options parameterizes the two-level classification.
type Options struct {
	// DensityGrid is the pixelation resolution (N x N) for density-based
	// classification. The paper pixelates the 1.2 um core at a resolution
	// on the order of 100 nm; 12 is the default.
	DensityGrid int
	// R0 is the user-defined radius threshold of Eq. (2).
	R0 float64
	// K is the user-defined expected cluster count of Eq. (2) (10 in §V).
	K float64
	// RecalcCentroid recalculates a cluster's centroid whenever a pattern
	// is added (the refinement mentioned in §III-B2).
	RecalcCentroid bool
	// LiteralMatching groups the string level by the paper's literal
	// Theorem-1 composite-substring test instead of canonical-key
	// bucketing. The two are equivalent (tests assert it) but the literal
	// test is O(n^2) in the pattern count; it exists for fidelity and for
	// cross-checking the canonical-key optimization.
	LiteralMatching bool
}

// DefaultOptions matches the paper's §V parameters.
var DefaultOptions = Options{
	DensityGrid:    12,
	R0:             0.5,
	K:              10,
	RecalcCentroid: true,
}

// Cluster is one topological cluster of training patterns.
type Cluster struct {
	// Key is the canonical topology key shared by all members
	// (string-level identity).
	Key string
	// Members indexes the patterns assigned to this cluster.
	Members []int
	// Centroid is the running mean density grid of the members, in the
	// frame of the first member.
	Centroid Density
	// Representative is the member index whose density grid is closest to
	// the centroid; it stands for the cluster in downsampling and feature
	// slot definitions.
	Representative int
}

// Sample is one classification input: geometry and the region it is
// classified on (the core for normal classification, the whole clip window
// for the ambit-aware feedback sub-clustering of §III-D4).
type Sample struct {
	Rects  []geom.Rect
	Region geom.Rect
}

// Classify runs the two-level topological classification of §III-B over
// the samples: string-based bucketing by canonical topology key, then
// density-based clustering with the Eq. (2) radius inside each bucket.
// Cluster order is deterministic.
func Classify(patterns []Sample, opts Options) []Cluster {
	return ClassifyObs(patterns, opts, nil)
}

// ClassifyObs is Classify with metrics: when reg is non-nil it records the
// sample count, the string-level bucket count, the final cluster count,
// and the classification wall time. A nil reg is exactly Classify.
func ClassifyObs(patterns []Sample, opts Options, reg *obs.Registry) []Cluster {
	start := time.Now()
	clusters, buckets := classify(patterns, opts)
	if reg != nil {
		reg.Counter("topo.samples").Add(int64(len(patterns)))
		reg.Counter("topo.string_buckets").Add(int64(buckets))
		reg.Counter("topo.clusters").Add(int64(len(clusters)))
		reg.Histogram("topo.classify_seconds").ObserveDuration(time.Since(start))
	}
	return clusters
}

// classify is the implementation; it also reports the string-level bucket
// count for instrumentation.
func classify(patterns []Sample, opts Options) ([]Cluster, int) {
	if opts.DensityGrid <= 0 {
		opts.DensityGrid = DefaultOptions.DensityGrid
	}
	if opts.K <= 0 {
		opts.K = DefaultOptions.K
	}
	// Level 1: string-based buckets.
	type bucket struct {
		key     string
		members []int
	}
	byKey := make(map[string]*bucket)
	var order []string
	keys := make([]string, len(patterns))
	grids := make([]Density, len(patterns))
	for i, p := range patterns {
		// One Canonicalize serves both the string key and the density grid;
		// computing them separately would canonicalize every pattern twice
		// (8 orientation passes each).
		keys[i], grids[i] = CanonicalKeyDensity(p.Rects, p.Region, opts.DensityGrid)
		b := byKey[keys[i]]
		if b == nil {
			b = &bucket{key: keys[i]}
			byKey[keys[i]] = b
			order = append(order, keys[i])
		}
		b.members = append(b.members, i)
	}
	sort.Strings(order)
	if opts.LiteralMatching {
		// Regroup by the literal Theorem-1 test: pairwise composite-string
		// matching with a representative per group.
		byKey = make(map[string]*bucket)
		order = order[:0]
		type group struct {
			s       StringSet
			members []int
		}
		var groups []*group
		for i, p := range patterns {
			s := normalizedStrings(p.Rects, p.Region)
			placed := false
			for _, g := range groups {
				if MatchComposite(s, g.s) {
					g.members = append(g.members, i)
					placed = true
					break
				}
			}
			if !placed {
				groups = append(groups, &group{s: s, members: []int{i}})
			}
		}
		for _, g := range groups {
			// The canonical key of the first member still names the group.
			key := keys[g.members[0]]
			byKey[key] = &bucket{key: key, members: g.members}
			order = append(order, key)
		}
		sort.Strings(order)
	}

	// Level 2: density-based clustering inside each bucket.
	var out []Cluster
	for _, key := range order {
		b := byKey[key]
		out = append(out, densityCluster(b.key, b.members, grids, opts)...)
	}
	return out, len(order)
}

// CanonicalDensity computes the density grid in the canonical orientation
// (the orientation that minimizes the encoded string key), so that grids of
// same-topology patterns are directly comparable.
func CanonicalDensity(rects []geom.Rect, window geom.Rect, n int) Density {
	var d Density
	CanonicalDensityInto(&d, nil, rects, window, n)
	return d
}

// Scratch carries the reusable rect buffers of the canonical-density path.
// The zero value is ready to use; a scratch must not be shared between
// concurrent callers, and the buffers it hands out are only valid until the
// next call that uses it.
type Scratch struct {
	norm, oriented []geom.Rect
}

// CanonicalDensityInto is CanonicalDensity writing the grid into d, reusing
// d.D and (when s is non-nil) s's rect buffers. Canonicalization itself
// still allocates internally (its slab codes, one key buffer and the
// returned key); the Into form removes the per-call grid and rect-slice
// garbage.
func CanonicalDensityInto(d *Density, s *Scratch, rects []geom.Rect, window geom.Rect, n int) {
	_, bestO := Canonicalize(rects, window)
	orientedDensityInto(d, s, rects, window, bestO, n)
}

// CanonicalKeyDensity returns both the canonical string key and the
// canonical-orientation density grid from a single Canonicalize pass —
// exactly CanonicalKey plus CanonicalDensity at half the canonicalization
// cost. Classification needs both for every pattern.
func CanonicalKeyDensity(rects []geom.Rect, window geom.Rect, n int) (string, Density) {
	key, bestO := Canonicalize(rects, window)
	var d Density
	orientedDensityInto(&d, nil, rects, window, bestO, n)
	return key, d
}

// orientedDensityInto pixelates the window-normalized geometry under the
// given orientation — the shared tail of the canonical-density entry
// points.
func orientedDensityInto(d *Density, s *Scratch, rects []geom.Rect, window geom.Rect, o geom.Orientation, n int) {
	side := window.W()
	if window.H() > side {
		side = window.H()
	}
	var norm []geom.Rect
	if s != nil {
		norm = s.norm[:0]
	} else {
		norm = make([]geom.Rect, 0, len(rects))
	}
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			norm = append(norm, c.Translate(-window.X0, -window.Y0))
		}
	}
	w := geom.Rect{X0: 0, Y0: 0, X1: window.W(), Y1: window.H()}
	var tr []geom.Rect
	if s != nil {
		tr = s.oriented[:0]
		for _, r := range norm {
			tr = append(tr, o.ApplyToRect(r, side))
		}
	} else {
		tr = o.ApplyToRects(norm, side)
	}
	tw := o.ApplyToRect(w, side)
	ComputeDensityInto(d, tr, tw, n)
	if s != nil {
		s.norm = norm
		s.oriented = tr
	}
}

// densityCluster clusters one string bucket by density distance.
func densityCluster(key string, members []int, grids []Density, opts Options) []Cluster {
	if len(members) == 0 {
		return nil
	}
	// Radius per Eq. (2): R = max(R0, max_ij rho / K). The pairwise
	// maximum is computed within the bucket (same-topology patterns are
	// the only candidates for sharing a cluster).
	radius := opts.R0
	if len(members) > 1 {
		// For very large buckets the exact O(n^2) maximum is sampled on an
		// evenly strided subset: the radius is a scale estimate, not an
		// invariant.
		sample := members
		const maxSample = 256
		if len(sample) > maxSample {
			stride := len(sample) / maxSample
			strided := make([]int, 0, maxSample)
			for i := 0; i < len(sample); i += stride {
				strided = append(strided, sample[i])
			}
			sample = strided
		}
		maxRho := 0.0
		for i := 0; i < len(sample); i++ {
			for j := i + 1; j < len(sample); j++ {
				if v := Dist(grids[sample[i]], grids[sample[j]]); v > maxRho {
					maxRho = v
				}
			}
		}
		if r := maxRho / opts.K; r > radius {
			radius = r
		}
	}

	var clusters []Cluster
	for _, m := range members {
		placed := false
		for ci := range clusters {
			c := &clusters[ci]
			if _, dist := AlignTo(c.Centroid, grids[m]); dist <= radius {
				aligned, _ := AlignTo(c.Centroid, grids[m])
				c.Members = append(c.Members, m)
				if opts.RecalcCentroid {
					n := float64(len(c.Members))
					for i := range c.Centroid.D {
						c.Centroid.D[i] = (c.Centroid.D[i]*(n-1) + aligned.D[i]) / n
					}
				}
				placed = true
				break
			}
		}
		if !placed {
			centroid := Density{N: grids[m].N, D: append([]float64(nil), grids[m].D...)}
			clusters = append(clusters, Cluster{
				Key:      key,
				Members:  []int{m},
				Centroid: centroid,
			})
		}
	}
	// Pick representatives: member closest to the final centroid.
	for ci := range clusters {
		c := &clusters[ci]
		best := -1
		bestDist := 0.0
		for _, m := range c.Members {
			_, d := AlignTo(c.Centroid, grids[m])
			if best == -1 || d < bestDist {
				best, bestDist = m, d
			}
		}
		c.Representative = best
	}
	return clusters
}

// normalizedStrings computes a pattern's directional strings in the
// window's own frame (translated to the origin), as the literal matcher
// expects.
func normalizedStrings(rects []geom.Rect, window geom.Rect) StringSet {
	norm := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		c := r.Intersect(window)
		if !c.Empty() {
			norm = append(norm, c.Translate(-window.X0, -window.Y0))
		}
	}
	w := geom.Rect{X0: 0, Y0: 0, X1: window.W(), Y1: window.H()}
	return ComputeStrings(norm, w)
}
