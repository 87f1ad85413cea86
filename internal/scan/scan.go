// Package scan implements the chip-scale tiled scan pipeline: it
// partitions a layout (or a flattened-on-demand GDSII library) into tiles
// with a halo wide enough to materialize every clip anchored inside the
// tile, extracts each tile's candidate clips, feeds them in chunks through
// a bounded work-stealing worker pool with a per-tile memory budget and
// context cancellation, and deduplicates candidates across tile seams.
// Tiles bound memory and key the store; chunks are the unit of parallel
// work, so one large tile still keeps every worker busy.
//
// The package is deliberately model-free: chunk classification (the SVM
// kernels) is injected as a ChunkFunc by internal/core, which owns the
// detector. What scan guarantees is the orchestration contract: every
// dissection anchor of the layout is evaluated in exactly one tile, and
// the merged candidate set equals the monolithic whole-layout extraction
// (clip.DedupCanonical is associative, so per-tile dedup plus one seam
// pass reproduces the global pass).
//
// One persistence layer rides on that purity: the tile result Store
// (Options.Store), a content-addressed cache that outlives runs. Each
// tile's verdicts are keyed by TileKey — a snap-base-relative fingerprint
// of the tile's halo geometry — under a model/config digest, so a re-scan
// after a small edit evaluates only the tiles whose geometry actually
// changed and splices the cached verdicts into the same seam-dedup merge,
// producing a report byte-identical to a cold scan (see
// core.ScanIncremental). Every finished tile is flushed to the store at
// once, so re-running an interrupted scan against its store is also how
// the scan resumes: the finished tiles hit and only the rest evaluate.
package scan

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/workerpanic"
)

// DefaultTileFactor sizes the default tile as a multiple of the clip side:
// big enough to amortize per-tile overhead (halo re-query, store write),
// small enough that tens of tiles exist to parallelize over on typical
// benchmarks.
const DefaultTileFactor = 8

// DefaultTileMemBytes is the default per-tile memory budget. A tile whose
// halo window holds more geometry than the budget allows is split into
// quadrants until it fits (or its side would drop below the core side), so
// peak memory tracks the budget rather than the densest region of the chip.
const DefaultTileMemBytes = 64 << 20

// rectFootprintBytes is the bookkeeping cost charged per geometry
// rectangle of a tile's halo window when applying the memory budget: the
// rectangle itself, its grid-index slots, and its share of the dissection
// pieces and materialized clip windows alive while the tile is evaluated.
const rectFootprintBytes = 128

// Options parameterizes a tiled scan.
type Options struct {
	// Spec is the clip geometry; the halo width derives from it.
	Spec clip.Spec
	// Layer is the layer under scan.
	Layer layout.Layer
	// Req filters extracted candidates (must match the detector's).
	Req clip.Requirements
	// Tile is the tile side in dbu; 0 picks DefaultTile of the scanned
	// span. Must be at least Spec.CoreSide so a tile can own whole anchors.
	Tile geom.Coord
	// Window, when non-empty, restricts the scan to the tiles of this
	// sub-rectangle of the source bounds instead of the whole extent. It
	// is the distributed coordinator's shard hook: a window aligned to
	// the global tile grid (whole tile rows or columns) evaluates exactly
	// that grid's tiles inside it, so per-window candidate sets from a
	// partition of the bounds concatenate — plus one MergeSeams pass —
	// into the whole-layout result.
	Window geom.Rect
	// Workers bounds the worker pool; <= 1 scans serially.
	Workers int
	// TileMemBytes is the per-tile memory budget; 0 means
	// DefaultTileMemBytes, negative disables adaptive splitting.
	TileMemBytes int64
	// Store, when non-nil, is the content-addressed tile result store:
	// before evaluating a tile the pipeline computes its TileKey and
	// serves a hit from the store (scan.tiles_cached); misses are
	// evaluated and written back (scan.tiles_dirty). The caller owns the
	// store's lifecycle and must have opened it under the digest of the
	// model backing the ChunkFunc.
	Store *Store
	// Obs receives scan counters (scan.tiles_done et al.) and tile timing
	// histograms; nil disables them at zero cost.
	Obs *obs.Registry
}

func (o Options) withDefaults(span geom.Rect) Options {
	if o.Tile == 0 {
		o.Tile = DefaultTile(o.Spec, span)
	}
	if o.TileMemBytes == 0 {
		o.TileMemBytes = DefaultTileMemBytes
	}
	return o
}

// halo returns the margin a tile's window needs beyond the tile rectangle:
// a clip anchored on the far tile edge reaches CoreSide+Ambit outward, and
// one anchored on the near edge reaches Ambit backward. One symmetric
// margin of CoreSide+Ambit covers both.
func (o Options) halo() geom.Coord { return o.Spec.CoreSide + o.Spec.Ambit() }

// Candidate is one evaluated clip candidate of a tile: its anchor, its
// seam-dedup key, and its classification outcome. The JSON form is the
// tile result store's payload.
type Candidate struct {
	At        geom.Point `json:"at"`
	Key       clip.Key   `json:"key"`
	Flagged   bool       `json:"flagged,omitempty"`
	Reclaimed bool       `json:"reclaimed,omitempty"`
}

// ChunkSize is the most candidates one chunk holds. A chunk is the unit of
// work the scan's workers steal: large enough to amortize batched SVM
// evaluation, small enough that one tile's candidates spread across every
// worker and a cancelled scan stops within one chunk.
const ChunkSize = 256

// ChunkFunc classifies one chunk of a tile's candidates: l covers the
// tile's halo window (for a shared in-memory source this is the whole
// layout), and each of cands — at most ChunkSize, anchored inside the
// tile, with At and Key set — gets its Flagged and Reclaimed fields written
// in place. Implementations must be safe for concurrent calls on distinct
// chunks, of one tile or of several.
type ChunkFunc func(l *layout.Layout, cands []Candidate) error

// Result is a tiled scan's merged outcome.
type Result struct {
	// Candidates is the seam-deduplicated candidate set, sorted by (y, x)
	// anchor — position-for-position identical to the monolithic
	// extraction order.
	Candidates []Candidate
	// TilesTotal counts tiles after adaptive splitting; TilesDone of
	// those were evaluated or served from the store this run, and
	// TilesSplit were subdivided for exceeding the memory budget (and are
	// not counted in TilesTotal).
	TilesTotal, TilesDone, TilesSplit int
	// TilesCached and TilesDirty partition the store-consulting tiles of
	// a scan with Options.Store: cached tiles were served from the store,
	// dirty ones were evaluated and written back. Both are zero without a
	// store.
	TilesCached, TilesDirty int
}

// Run executes a tiled scan over src. Tiles are distributed across a
// work-stealing pool of opts.Workers goroutines. The worker that takes a
// tile loads its halo window, splits it or serves it from the store, or
// else extracts its candidates and pushes them, ChunkSize at a time, onto
// its own deque, where idle workers steal them; the worker that classifies
// a tile's last chunk writes the tile to the store (when one is
// configured) and merges its candidates into the seam-deduplicated result.
// On context cancellation Run returns the context error together with the
// partial result; completed tiles remain in the store, so a later Run
// against it picks up where this one stopped. An error or panic in a chunk
// stops the scan the same way, a panic returned as a *workerpanic.Error.
func Run(ctx context.Context, src Source, opts Options, classify ChunkFunc) (Result, error) {
	var res Result
	if err := opts.Spec.Validate(); err != nil {
		return res, err
	}
	span := src.Bounds()
	if !opts.Window.Empty() {
		span = opts.Window
	}
	opts = opts.withDefaults(span)
	if opts.Tile < opts.Spec.CoreSide {
		return res, fmt.Errorf("scan: tile side %d below core side %d", opts.Tile, opts.Spec.CoreSide)
	}
	if err := checkTileGrid(span, opts.Tile); err != nil {
		return res, err
	}
	reg := opts.Obs
	reg.Counter("scan.runs").Inc()

	var (
		mu     sync.Mutex // guards res, all and runErr
		all    []Candidate
		runErr error
	)
	pool := newStealPool(opts.Workers, newTileGrid(span, opts.Tile))
	abort := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
		pool.stop()
		pool.finish()
	}

	var wg sync.WaitGroup
	for w := 0; w < pool.workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t, ok := pool.get(w)
				if !ok {
					return
				}
				if err := ctx.Err(); err != nil {
					abort(err)
					return
				}
				cands, outcome, err := runTask(ctx, src, opts, classify, t, pool, w)
				if err != nil {
					abort(err)
					return
				}
				mu.Lock()
				switch outcome {
				case tileSplit:
					res.TilesSplit++
				case tileEvaluated, tileCached:
					res.TilesTotal++
					res.TilesDone++
					if outcome == tileCached {
						res.TilesCached++
					} else {
						reg.Counter("scan.tiles_done").Inc()
						if opts.Store != nil {
							res.TilesDirty++
						}
					}
					all = append(all, cands...)
				}
				mu.Unlock()
				pool.finish()
			}
		}(w)
	}
	wg.Wait()

	if opts.Store != nil {
		reg.Gauge("scan.store_bytes").Set(opts.Store.Stats().Bytes)
	}
	res.Candidates = MergeSeams(all)
	reg.Counter("scan.candidates").Add(int64(len(res.Candidates)))
	if runErr != nil {
		return res, runErr
	}
	return res, ctx.Err()
}

// tileOutcome reports how a task left its tile.
type tileOutcome int

const (
	tileEvaluated tileOutcome = iota // every candidate classified (and stored)
	tileCached                       // served from the tile result store
	tileSplit                        // subdivided; quadrants re-queued
	tilePending                      // chunks queued or still being classified
)

// tileJob is an extracted tile whose chunks are in the pool.
type tileJob struct {
	l     *layout.Layout
	cands []Candidate
	key   string // store key; empty without a store
	start time.Time
	left  atomic.Int32 // chunks not yet classified
}

// runTask runs one task — a tile (runTile) or a chunk (runChunk) —
// returning a panic as a *workerpanic.Error. Candidates come back only
// with the tileEvaluated and tileCached outcomes.
func runTask(ctx context.Context, src Source, opts Options, classify ChunkFunc, t task, pool *stealPool, w int) (cands []Candidate, outcome tileOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = workerpanic.Recovered(v)
		}
	}()
	if t.job != nil {
		return runChunk(opts, classify, t)
	}
	return runTile(ctx, src, opts, t.tile, pool, w)
}

// runTile processes one tile up to classification: halo-window loading,
// memory-budget splitting, store lookup and candidate extraction, whose
// chunks it pushes on worker w's deque. A tileSplit outcome means the tile
// was subdivided (its quadrants were re-queued) instead of extracted.
func runTile(ctx context.Context, src Source, opts Options, tile geom.Rect, pool *stealPool, w int) ([]Candidate, tileOutcome, error) {
	halo := tile.Expand(opts.halo())
	// Cheap pre-load split estimate (exact for in-memory sources). Sources
	// that cannot estimate without loading return a negative count and are
	// re-checked after the load below.
	est := src.EstimateRects(halo)
	if splitTile(pool, w, opts, tile, est) {
		opts.Obs.Counter("scan.tiles_split").Inc()
		return nil, tileSplit, nil
	}

	start := time.Now()
	tl, err := src.Window(halo)
	if err != nil {
		return nil, tileEvaluated, fmt.Errorf("scan: loading tile %v: %w", tile, err)
	}
	// Sources that could not estimate (est < 0) load a fresh per-window
	// layout, whose rect count is the halo's true footprint. Sources that
	// estimated exactly may share one whole-chip layout from Window, so its
	// NumRects must not be mistaken for the halo's.
	if est < 0 && splitTile(pool, w, opts, tile, tl.NumRects()) {
		opts.Obs.Counter("scan.tiles_split").Inc()
		return nil, tileSplit, nil
	}

	// The store lookup sits after splitting (so keys name the tiles that
	// are actually evaluated — splitting is deterministic, so a re-scan
	// re-derives the same quadrants) and covers exactly the purity
	// contract: the tile rect plus the full extents of the halo geometry,
	// snap-base-relative.
	job := &tileJob{l: tl, start: start}
	if opts.Store != nil {
		rects := tl.Query(opts.Layer, halo, nil)
		job.key = TileKey(tile, rects, opts.Req.SnapBase)
		if rel, ok := opts.Store.Get(job.key); ok {
			opts.Obs.Counter("scan.tiles_cached").Inc()
			return relocate(rel, opts.Req, +1), tileCached, nil
		}
	}

	kcs, err := clip.ExtractTile(ctx, tl, opts.Layer, opts.Spec, opts.Req, tile)
	if err != nil {
		return nil, tileEvaluated, err
	}
	if len(kcs) == 0 {
		return finishTile(opts, job)
	}
	job.cands = make([]Candidate, len(kcs))
	for i, kc := range kcs {
		job.cands[i] = Candidate{At: kc.At, Key: kc.Key}
	}
	job.left.Store(int32((len(kcs) + ChunkSize - 1) / ChunkSize))
	for lo := 0; lo < len(kcs); lo += ChunkSize {
		pool.push(w, task{job: job, lo: lo, hi: min(lo+ChunkSize, len(kcs))})
	}
	return nil, tilePending, nil
}

// runChunk classifies one chunk; the call that classifies its tile's last
// chunk finishes the tile.
func runChunk(opts Options, classify ChunkFunc, t task) ([]Candidate, tileOutcome, error) {
	if err := classify(t.job.l, t.job.cands[t.lo:t.hi]); err != nil {
		return nil, tileEvaluated, err
	}
	if t.job.left.Add(-1) > 0 {
		return nil, tilePending, nil
	}
	return finishTile(opts, t.job)
}

// finishTile writes a fully classified tile back to the store (when one is
// configured) and hands its candidates to the merge.
func finishTile(opts Options, job *tileJob) ([]Candidate, tileOutcome, error) {
	if opts.Store != nil {
		if err := opts.Store.Put(job.key, relocate(job.cands, opts.Req, -1)); err != nil {
			return nil, tileEvaluated, err
		}
		opts.Obs.Counter("scan.tiles_dirty").Inc()
	}
	opts.Obs.Histogram("scan.tile_seconds").ObserveDuration(time.Since(job.start))
	return job.cands, tileEvaluated, nil
}

// relocate moves candidates between absolute coordinates and the store's
// snap-base-relative ones: sign -1 makes them relative, +1 absolute again.
// It mirrors clip.KeyFor: with the snap grid disabled the dedup cell is
// the absolute anchor and moves with it.
func relocate(cands []Candidate, req clip.Requirements, sign geom.Coord) []Candidate {
	return RelocateCandidates(cands, sign*req.SnapBase.X, sign*req.SnapBase.Y, req.SnapGrid <= 0)
}

// splitTile decides whether a tile with nrects halo rectangles exceeds the
// memory budget and, if so, re-queues its quadrants on the worker's own
// deque. Tiles whose halves would fall below the core side are evaluated
// regardless (the budget is then genuinely unreachable). Splitting is
// deterministic for a given source and options, so a re-run re-splits
// identically and finds the stored quadrants.
func splitTile(pool *stealPool, w int, opts Options, tile geom.Rect, nrects int) bool {
	if opts.TileMemBytes < 0 || nrects < 0 {
		return false
	}
	if int64(nrects)*rectFootprintBytes <= opts.TileMemBytes {
		return false
	}
	quads := quadrants(tile, opts.Spec.CoreSide)
	if quads == nil {
		return false
	}
	for _, q := range quads {
		pool.push(w, task{tile: q})
	}
	return true
}

// MergeSeams collapses duplicate candidates straddling tile boundaries:
// per-tile results are already canonically deduplicated, and the canonical
// winner (coordinate-minimal anchor per key class) is associative, so one
// more pass over the concatenation yields exactly the monolithic set. The
// same associativity lets the distributed coordinator merge per-shard
// candidate sets: one MergeSeams over the concatenation of any partition's
// results reproduces the whole-layout scan.
func MergeSeams(all []Candidate) []Candidate {
	kcs := make([]clip.Keyed, len(all))
	byAnchor := make(map[geom.Point]Candidate, len(all))
	for i, c := range all {
		kcs[i] = clip.Keyed{At: c.At, Key: c.Key}
		byAnchor[c.At] = c
	}
	winners := clip.DedupCanonical(kcs)
	out := make([]Candidate, len(winners))
	for i, kc := range winners {
		out[i] = byAnchor[kc.At]
	}
	return out
}
