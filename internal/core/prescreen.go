package core

import (
	"sync"
	"sync/atomic"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
)

// This file implements the exact pre-screen of the clip-evaluation fast
// path (§III-E's "discard cheaply before expensive work", made bit-exact):
// a verdict memo consulted before feature extraction and the SVMs. The
// memo is a sharded cache keyed by the clip's core geometry normalized to
// the core origin. Kernel verdicts are pure functions of that geometry
// (extraction canonicalizes in the core frame), so a hit replays a
// previously computed verdict verbatim; layouts repeat patterns heavily
// (standard cells, arrays). Entries are verified by full geometry
// comparison — a hash collision degrades to a miss, never a wrong verdict.
//
// The memo is exact: with it on or off, every report field and every
// telemetry counter is byte-identical (locked by the equivalence tests in
// fastpath_test.go).

// memoShards spreads verdict-memo lookups across locks; tile workers hit
// the memo concurrently.
const memoShards = 64

// memoMaxEntries caps the memo's footprint (entries, not bytes); once full
// the memo stops learning new geometries but keeps serving the ones it has.
const memoMaxEntries = 1 << 16

// verdictMemo is the pre-screen cache. A memo is valid for one evaluation
// configuration (the fields below are everything a kernel verdict depends
// on besides the immutable kernels and the clip's core geometry); SetBias
// et al. simply swap in a fresh memo.
type verdictMemo struct {
	bias       float64
	routeK     int
	basicSlots int
	grid       int
	count      atomic.Int64
	shards     [memoShards]memoShard
}

type memoShard struct {
	mu sync.RWMutex
	m  map[uint64][]memoEntry
}

// memoEntry is one cached verdict with its exact key: the core extent and
// the core-clipped geometry normalized to the core origin.
type memoEntry struct {
	coreW, coreH geom.Coord
	rects        []geom.Rect
	v            batchVerdict
}

// memoFor returns a verdict memo matching cfg, reusing the current one when
// compatible and atomically installing a fresh one otherwise.
func (d *Detector) memoFor(cfg Config) *verdictMemo {
	grid := cfg.Topo.DensityGrid
	m := d.memo.Load()
	if m != nil && m.bias == cfg.Bias && m.routeK == cfg.RouteK &&
		m.basicSlots == cfg.BasicSlots && m.grid == grid {
		return m
	}
	fresh := &verdictMemo{bias: cfg.Bias, routeK: cfg.RouteK, basicSlots: cfg.BasicSlots, grid: grid}
	if d.memo.CompareAndSwap(m, fresh) {
		return fresh
	}
	// Raced with another goroutine; retry (the winner's memo either
	// matches cfg or the next round installs one that does).
	return d.memoFor(cfg)
}

// coreHash fingerprints the clip's normalized core geometry (FNV-1a over
// the core extent and each core-clipped rect's origin-relative
// coordinates). Equal geometry always hashes equally; collisions are
// resolved by memoEqual.
func coreHash(p *clip.Pattern) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v geom.Coord) {
		h ^= uint64(uint32(v))
		h *= prime
	}
	mix(p.Core.W())
	mix(p.Core.H())
	for _, r := range p.Rects {
		c := r.Intersect(p.Core)
		if c.Empty() {
			continue
		}
		mix(c.X0 - p.Core.X0)
		mix(c.Y0 - p.Core.Y0)
		mix(c.X1 - p.Core.X0)
		mix(c.Y1 - p.Core.Y0)
	}
	return h
}

// memoEqual reports whether the entry's key is exactly the clip's
// normalized core geometry (same rects, same order).
func memoEqual(e *memoEntry, p *clip.Pattern) bool {
	if e.coreW != p.Core.W() || e.coreH != p.Core.H() {
		return false
	}
	t := 0
	for _, r := range p.Rects {
		c := r.Intersect(p.Core)
		if c.Empty() {
			continue
		}
		if t >= len(e.rects) {
			return false
		}
		n := c.Translate(-p.Core.X0, -p.Core.Y0)
		if e.rects[t] != n {
			return false
		}
		t++
	}
	return t == len(e.rects)
}

// lookup returns the cached verdict for the clip's geometry, if any. The
// hit path performs no allocation.
func (m *verdictMemo) lookup(h uint64, p *clip.Pattern) (batchVerdict, bool) {
	sh := &m.shards[h%memoShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for i := range sh.m[h] {
		e := &sh.m[h][i]
		if memoEqual(e, p) {
			return e.v, true
		}
	}
	return batchVerdict{}, false
}

// insert caches a computed verdict under the clip's geometry key, bounded
// by memoMaxEntries. Duplicate concurrent inserts of the same geometry are
// harmless (both carry the same verdict; lookups stop at the first match).
func (m *verdictMemo) insert(h uint64, p *clip.Pattern, v batchVerdict) {
	if m.count.Load() >= memoMaxEntries {
		return
	}
	e := memoEntry{coreW: p.Core.W(), coreH: p.Core.H(), v: v}
	for _, r := range p.Rects {
		c := r.Intersect(p.Core)
		if !c.Empty() {
			e.rects = append(e.rects, c.Translate(-p.Core.X0, -p.Core.Y0))
		}
	}
	sh := &m.shards[h%memoShards]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64][]memoEntry)
	}
	sh.m[h] = append(sh.m[h], e)
	sh.mu.Unlock()
	m.count.Add(1)
}
