// Package scan implements the chip-scale tiled scan pipeline: it
// partitions a layout (or a flattened-on-demand GDSII library) into tiles
// with a halo wide enough to materialize every clip anchored inside the
// tile, feeds the tiles through a bounded work-stealing worker pool with a
// per-tile memory budget and context cancellation, and deduplicates
// candidates across tile seams.
//
// The package is deliberately model-free: tile evaluation (clip extraction
// plus SVM classification) is injected as a TileFunc by internal/core,
// which owns the detector. What scan guarantees is the orchestration
// contract: every dissection anchor of the layout is evaluated in exactly
// one tile, and the merged candidate set equals the monolithic
// whole-layout extraction (clip.DedupCanonical is associative, so per-tile
// dedup plus one seam pass reproduces the global pass).
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
	"runtime/debug"
	"sync"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
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
	// Tile is the tile side in dbu; 0 picks DefaultTileFactor*ClipSide.
	// Must be at least Spec.CoreSide so a tile can own whole anchors.
	Tile geom.Coord
	// Window, when non-empty, restricts the scan to the tiles of this
	// sub-rectangle of the source bounds instead of the whole extent. It
	// is the distributed coordinator's shard hook: a window aligned to
	// the global tile grid (whole tile rows or columns) evaluates exactly
	// that grid's tiles inside it, so per-window candidate sets from a
	// partition of the bounds concatenate — plus one MergeSeams pass —
	// into the whole-layout result.
	Window geom.Rect
	// Workers bounds the tile worker pool; <= 1 scans serially.
	Workers int
	// TileMemBytes is the per-tile memory budget; 0 means
	// DefaultTileMemBytes, negative disables adaptive splitting.
	TileMemBytes int64
	// Store, when non-nil, is the content-addressed tile result store:
	// before evaluating a tile the pipeline computes its TileKey and
	// serves a hit from the store (scan.tiles_cached); misses are
	// evaluated and written back (scan.tiles_dirty). The caller owns the
	// store's lifecycle and must have opened it under the digest of the
	// model backing the TileFunc.
	Store *Store
	// Obs receives scan counters (scan.tiles_done et al.) and tile timing
	// histograms; nil disables them at zero cost.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Tile == 0 {
		o.Tile = DefaultTileFactor * o.Spec.ClipSide
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

// TileFunc evaluates one tile: it receives a layout covering the tile's
// halo-expanded window (for a shared in-memory source this is the whole
// layout) and returns the classified candidates anchored inside tile.
// Implementations must be safe for concurrent invocation on distinct
// tiles.
type TileFunc func(ctx context.Context, l *layout.Layout, tile geom.Rect) ([]Candidate, error)

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

// PanicError is a panic recovered from a worker goroutine: the work it was
// part of stops and fails with this error (or, in a worker pool that
// reports no error, panics again with it on the caller's goroutine), so a
// server fails one request instead of crashing.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// PanicPrefix begins every PanicError message. hotspotd answers a worker
// panic with status 500 and PanicPrefix followed by the panic value, so a
// client can tell a panic, which the same request hits again on any
// server, from a transient failure.
const PanicPrefix = "worker panic: "

// Error reports the panic value followed by the worker's stack. The error,
// or the panic raised again with it, is where the stack of the failing
// code gets printed: the worker goroutine that ran it is gone.
func (e *PanicError) Error() string {
	if len(e.Stack) == 0 {
		return PanicPrefix + fmt.Sprint(e.Value)
	}
	return fmt.Sprintf("%s%v\n\n%s", PanicPrefix, e.Value, e.Stack)
}

// Recovered wraps a value returned by recover, called in the deferred
// function of the panicking goroutine, with that goroutine's stack. A
// *PanicError re-raised from a nested pool is returned as it is, keeping
// the original stack.
func Recovered(v any) *PanicError {
	if p, ok := v.(*PanicError); ok {
		return p
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Run executes a tiled scan over src. Tiles are distributed across a
// work-stealing pool of opts.Workers goroutines; each finished tile is
// written to the store (when one is configured) and its candidates merged
// into the seam-deduplicated result. On context cancellation Run returns
// the context error together with the partial result; completed tiles
// remain in the store, so a later Run against it picks up where this one
// stopped. A panic while processing a tile stops the scan the same way and
// is returned as a *PanicError.
func Run(ctx context.Context, src Source, opts Options, eval TileFunc) (Result, error) {
	opts = opts.withDefaults()
	var res Result
	if err := opts.Spec.Validate(); err != nil {
		return res, err
	}
	if opts.Tile < opts.Spec.CoreSide {
		return res, fmt.Errorf("scan: tile side %d below core side %d", opts.Tile, opts.Spec.CoreSide)
	}

	span := src.Bounds()
	if !opts.Window.Empty() {
		span = opts.Window
	}
	if err := checkTileGrid(span, opts.Tile); err != nil {
		return res, err
	}
	tiles := tilesOver(span, opts.Tile)
	reg := opts.Obs
	reg.Counter("scan.runs").Inc()

	var (
		mu     sync.Mutex // guards res and firstErr
		all    []Candidate
		runErr error
	)
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
	}

	pool := newStealPool(opts.Workers, tiles)
	var wg sync.WaitGroup
	for w := 0; w < pool.workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				tile, ok := pool.get(w)
				if !ok {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					pool.stop()
					pool.finish()
					return
				}
				cands, outcome, err := runTileRecover(ctx, src, opts, eval, tile, pool, w)
				if err != nil {
					fail(err)
					pool.stop()
					pool.finish()
					return
				}
				mu.Lock()
				switch outcome {
				case tileSplit:
					res.TilesSplit++
				default:
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

// tileOutcome reports how runTile disposed of a tile.
type tileOutcome int

const (
	tileEvaluated tileOutcome = iota // evaluated by the TileFunc
	tileCached                       // served from the tile result store
	tileSplit                        // subdivided; quadrants re-queued
)

// runTileRecover is runTile returning a panic as a *PanicError.
func runTileRecover(ctx context.Context, src Source, opts Options, eval TileFunc, tile geom.Rect, pool *stealPool, w int) (cands []Candidate, outcome tileOutcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = Recovered(v)
		}
	}()
	return runTile(ctx, src, opts, eval, tile, pool, w)
}

// runTile processes one tile: halo-window loading, memory-budget
// splitting, store lookup, evaluation, and store write-back. A tileSplit
// outcome means the tile was subdivided (its quadrants were re-queued)
// instead of evaluated.
func runTile(ctx context.Context, src Source, opts Options, eval TileFunc, tile geom.Rect, pool *stealPool, w int) ([]Candidate, tileOutcome, error) {
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
	// snap-base-relative. moveCell mirrors clip.KeyFor: with the snap grid
	// disabled the dedup cell is the absolute anchor and must be
	// relocated with it.
	var storeKey string
	moveCell := opts.Req.SnapGrid <= 0
	if opts.Store != nil {
		rects := tl.Query(opts.Layer, halo, nil)
		storeKey = TileKey(tile, rects, opts.Req.SnapBase)
		if rel, ok := opts.Store.Get(storeKey); ok {
			opts.Obs.Counter("scan.tiles_cached").Inc()
			return RelocateCandidates(rel, opts.Req.SnapBase.X, opts.Req.SnapBase.Y, moveCell), tileCached, nil
		}
	}

	cands, err := eval(ctx, tl, tile)
	if err != nil {
		return nil, tileEvaluated, err
	}
	if opts.Store != nil {
		rel := RelocateCandidates(cands, -opts.Req.SnapBase.X, -opts.Req.SnapBase.Y, moveCell)
		if err := opts.Store.Put(storeKey, rel); err != nil {
			return nil, tileEvaluated, err
		}
		opts.Obs.Counter("scan.tiles_dirty").Inc()
	}
	opts.Obs.Histogram("scan.tile_seconds").ObserveDuration(time.Since(start))
	return cands, tileEvaluated, nil
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
		pool.push(w, q)
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
