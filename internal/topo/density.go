package topo

import (
	"math"

	"hotspot/internal/geom"
)

// Density is the pixel polygon-density vector of a core pattern: an N x N
// grid of coverage fractions in row-major order, y growing upward.
type Density struct {
	N int
	D []float64
}

// ComputeDensity pixelates the geometry within window into an n x n grid of
// exact coverage fractions.
func ComputeDensity(rects []geom.Rect, window geom.Rect, n int) Density {
	var d Density
	ComputeDensityInto(&d, rects, window, n)
	return d
}

// ComputeDensityInto is ComputeDensity writing into d, reusing d.D when it
// has the capacity, so steady-state callers (the per-clip evaluation loop)
// pixelate without allocating. The resulting grid is identical to
// ComputeDensity's for any input; d must not be aliased by another live
// Density.
func ComputeDensityInto(d *Density, rects []geom.Rect, window geom.Rect, n int) {
	if n < 1 {
		n = 1
	}
	d.N = n
	if cap(d.D) < n*n {
		d.D = make([]float64, n*n)
	} else {
		d.D = d.D[:n*n]
		for i := range d.D {
			d.D[i] = 0
		}
	}
	if window.Empty() {
		return
	}
	pw := float64(window.W()) / float64(n)
	ph := float64(window.H()) / float64(n)
	for _, r := range rects {
		c := r.Intersect(window)
		if c.Empty() {
			continue
		}
		fx0 := float64(c.X0-window.X0) / pw
		fx1 := float64(c.X1-window.X0) / pw
		fy0 := float64(c.Y0-window.Y0) / ph
		fy1 := float64(c.Y1-window.Y0) / ph
		x0, x1 := int(math.Floor(fx0)), int(math.Ceil(fx1))
		y0, y1 := int(math.Floor(fy0)), int(math.Ceil(fy1))
		for y := y0; y < y1 && y < n; y++ {
			if y < 0 {
				continue
			}
			cy := overlap1(float64(y), float64(y+1), fy0, fy1)
			for x := x0; x < x1 && x < n; x++ {
				if x < 0 {
					continue
				}
				cx := overlap1(float64(x), float64(x+1), fx0, fx1)
				v := d.D[y*n+x] + cx*cy
				if v > 1 {
					v = 1
				}
				d.D[y*n+x] = v
			}
		}
	}
}

func overlap1(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Orient returns the density grid transformed by o.
func (d Density) Orient(o geom.Orientation) Density {
	out := Density{N: d.N, D: make([]float64, len(d.D))}
	s := geom.Coord(d.N - 1)
	for y := 0; y < d.N; y++ {
		for x := 0; x < d.N; x++ {
			p := o.ApplyToPoint(geom.Pt(geom.Coord(x), geom.Coord(y)), s)
			out.D[int(p.Y)*d.N+int(p.X)] = d.D[y*d.N+x]
		}
	}
	return out
}

// l1 returns the plain L1 distance between two equally sized grids.
func l1(a, b Density) float64 {
	var sum float64
	for i := range a.D {
		sum += math.Abs(a.D[i] - b.D[i])
	}
	return sum
}

// Dist implements the paper's Eq. (1): the minimum, over the eight
// orientations, of the summed pixel-density difference.
func Dist(a, b Density) float64 {
	if a.N != b.N {
		// Incomparable grids are infinitely far apart.
		return math.Inf(1)
	}
	best := math.Inf(1)
	for _, o := range geom.AllOrientations {
		v := l1(a, b.Orient(o))
		if v < best {
			best = v
		}
	}
	return best
}

// AlignTo returns b oriented so that its L1 distance to a is minimal,
// together with that distance. Used for centroid updates so that members
// accumulate in a consistent frame.
func AlignTo(a, b Density) (Density, float64) {
	best := math.Inf(1)
	var bestD Density
	for _, o := range geom.AllOrientations {
		ob := b.Orient(o)
		v := l1(a, ob)
		if v < best {
			best = v
			bestD = ob
		}
	}
	return bestD, best
}
