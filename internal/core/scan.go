package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/gds"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
)

// ScanOptions parameterizes the tiled full-chip scan (ScanTiled and
// friends). The zero value scans with defaults: automatic tile size, the
// detector's configured worker count, no store.
type ScanOptions struct {
	// Tile is the tile side in dbu; 0 picks scan.DefaultTile: the
	// scan.DefaultTileFactor times the clip side, raised when the layout
	// would make more tiles than the grid ceiling. Must be at least the
	// core side.
	Tile geom.Coord
	// Workers bounds the scan's worker pool; 0 uses the detector's
	// configured evaluation worker count.
	Workers int
	// TileMemBytes is the per-tile memory budget (0 = default, negative =
	// no adaptive splitting); see scan.Options.
	TileMemBytes int64
	// Store is an open tile result store consulted before each tile is
	// evaluated and updated with fresh results; the caller owns its
	// lifecycle (open it with Detector.OpenStore so the digest matches).
	Store *scan.Store
	// StorePath, when non-empty and Store is nil, opens (or creates) the
	// tile result store at this path for the duration of the scan,
	// reusing compatible cached entries — the incremental re-scan path
	// (see ScanIncremental), which is also how an interrupted scan
	// resumes. Ignored when Store is set.
	StorePath string
}

// ErrCoordRange reports a layout whose coordinates come so close to the
// int32 limits of geom.Coord that the tiles, halos or clip windows around
// its geometry would wrap. Detect and every other scan entry point refuse
// such a layout before any work starts.
var ErrCoordRange = errors.New("core: layout coordinates out of range")

// checkCoordRange returns ErrCoordRange unless bounds, grown on every side
// by the tile side (0 means scan.DefaultTileFactor clip sides), the tile
// halo and the clip side, lie inside the int32 range and are no wider or
// taller than it.
func checkCoordRange(bounds geom.Rect, spec clip.Spec, tile geom.Coord) error {
	if bounds.Empty() {
		return nil
	}
	if tile <= 0 {
		tile = scan.DefaultTileFactor * spec.ClipSide
	}
	m := int64(tile) + int64(spec.CoreSide) + int64(spec.Ambit()) + int64(spec.ClipSide)
	x0, y0 := int64(bounds.X0)-m, int64(bounds.Y0)-m
	x1, y1 := int64(bounds.X1)+m, int64(bounds.Y1)+m
	if x0 < math.MinInt32 || y0 < math.MinInt32 || x1 > math.MaxInt32 || y1 > math.MaxInt32 ||
		x1-x0 > math.MaxInt32 || y1-y0 > math.MaxInt32 {
		return fmt.Errorf("%w: bounds %v grown by %d dbu leave the int32 coordinate range", ErrCoordRange, bounds, m)
	}
	return nil
}

// ScanStats reports a tiled scan's orchestration counters alongside the
// Report (which carries the detection outcome).
type ScanStats struct {
	TilesTotal, TilesDone, TilesSplit int
	// TilesCached were served from the tile result store; TilesDirty were
	// evaluated and written back. Both are zero for scans without a store.
	TilesCached, TilesDirty int
	// Store summarizes the tile result store consulted by this scan;
	// absent without one.
	Store *scan.StoreStats `json:",omitempty"`
}

// ScanTiled evaluates a testing layout through the tiled scan pipeline,
// the one evaluation engine behind Detect. Tiling, worker count, and
// adaptive splitting never change the outcome, only the memory profile and
// wall time — which TestScanTiledMatchesDetect verifies against the
// monolithic scalar reference.
func (d *Detector) ScanTiled(l *layout.Layout, opts ScanOptions) (Report, error) {
	rep, _, err := d.ScanTiledContext(context.Background(), l, opts)
	return rep, err
}

// ScanIncremental is ScanTiled against a persistent tile result store: the
// store at storePath is opened under this detector's ModelDigest, every
// tile is re-fingerprinted, tiles whose halo geometry is unchanged are
// served from the store, and only dirty tiles are evaluated (then written
// back). The report is byte-identical to a cold ScanTiled of the same
// layout — caching changes which tiles are computed, never what they
// compute — locked by TestScanIncrementalMatchesCold. A store written by a
// different model (or an older format) is discarded wholesale and rebuilt.
func (d *Detector) ScanIncremental(l *layout.Layout, storePath string, opts ScanOptions) (Report, ScanStats, error) {
	return d.ScanIncrementalContext(context.Background(), l, storePath, opts)
}

// ScanIncrementalContext is ScanIncremental with cooperative cancellation.
func (d *Detector) ScanIncrementalContext(ctx context.Context, l *layout.Layout, storePath string, opts ScanOptions) (Report, ScanStats, error) {
	opts.StorePath = storePath
	return d.ScanTiledContext(ctx, l, opts)
}

// OpenStore opens (or creates) the tile result store at path under this
// detector's ModelDigest, reusing compatible cached entries. Callers that
// scan repeatedly (hotspotd, the distributed coordinator) hold one open
// store across scans and pass it via ScanOptions.Store / dist's options;
// one-shot callers can just set ScanOptions.StorePath.
func (d *Detector) OpenStore(path string) (*scan.Store, error) {
	return scan.OpenStore(path, d.ModelDigest(), true)
}

// ScanTiledContext is ScanTiled with cooperative cancellation and scan
// statistics. On cancellation the partial report is returned with the
// context's error; with a store, tiles finished before the interruption
// are served from it by the next run against the same store.
func (d *Detector) ScanTiledContext(ctx context.Context, l *layout.Layout, opts ScanOptions) (Report, ScanStats, error) {
	cfg := d.config()
	// Every tile must share one snap-dedup grid origin: the geometry
	// bounds. The report is then equivariant under rigid translation of
	// the layout (locked by TestMetamorphicDetectTranslationInvariant) and
	// independent of the design frame, which wire formats like the
	// /v1/scan rect soup drop.
	gb := l.GeometryBounds()
	cfg.Requirements.SnapBase = geom.Pt(gb.X0, gb.Y0)
	src := scan.NewLayoutSource(l, cfg.Layer)
	return d.scanWith(ctx, src, opts, cfg, func([]geom.Rect) (*layout.Layout, error) {
		return l, nil
	})
}

// ScanGDSContext scans a GDSII hierarchy without ever flattening the whole
// chip: each tile flattens only the hierarchy subtrees overlapping its halo
// window, and redundant clip removal runs on a support layout flattened
// around the reported cores. The result matches flatten-then-Detect
// exactly.
func (d *Detector) ScanGDSContext(ctx context.Context, lib *gds.Library, top string, opts ScanOptions) (Report, ScanStats, error) {
	cfg := d.config()
	src, err := scan.NewGDSSource(lib, top)
	if err != nil {
		return Report{}, ScanStats{}, err
	}
	// The hierarchy bbox is the geometry bounds of the flattened chip, so
	// this matches what a scan of the flattened chip anchors its snap grid
	// on.
	cfg.Requirements.SnapBase = geom.Pt(src.Bounds().X0, src.Bounds().Y0)
	return d.scanWith(ctx, src, opts, cfg, func(cores []geom.Rect) (*layout.Layout, error) {
		return gdsSupportLayout(lib, top, cores, cfg)
	})
}

// scanWith runs the shared tiled-scan skeleton: runScan over src, then a
// Report assembled from the merged candidates, running redundant clip
// removal against the layout produced by support (the whole layout for
// in-memory scans, a windowed flatten around the cores for GDS scans).
func (d *Detector) scanWith(ctx context.Context, src scan.Source, opts ScanOptions, cfg Config, support func(cores []geom.Rect) (*layout.Layout, error)) (Report, ScanStats, error) {
	start := time.Now()
	var rep Report
	tel := &rep.Telemetry
	if err := checkCoordRange(src.Bounds(), cfg.Spec, opts.Tile); err != nil {
		return rep, ScanStats{}, err
	}

	sp := obs.Begin(tel, cfg.Obs, "scan.tiles")
	res, stats, evals, err := d.runScan(ctx, src, geom.Rect{}, opts, cfg)
	sp.AddItems(int64(res.TilesDone))
	sp.End()
	tel.AddCounter("scan.tiles_total", int64(res.TilesTotal))
	tel.AddCounter("scan.tiles_split", int64(res.TilesSplit))
	if stats.Store != nil {
		tel.AddCounter("scan.tiles_cached", int64(res.TilesCached))
		tel.AddCounter("scan.tiles_dirty", int64(res.TilesDirty))
	}
	tel.AddCounter("detect.kernel_evals", evals)

	// Assemble the report even when err != nil: the partial candidates are
	// the caller's progress picture, and the contract is that a non-nil
	// error means "incomplete". An incomplete scan skips removal (its
	// inputs are partial anyway).
	aerr := assembleScanReport(&rep, res.Candidates, cfg, err == nil, support)
	rep.Runtime = time.Since(start)
	switch {
	case err != nil:
		cfg.Obs.Counter("detect.cancelled").Inc()
		return rep, stats, err
	case aerr != nil:
		return rep, stats, aerr
	}
	cfg.Obs.Counter("detect.runs").Inc()
	cfg.Obs.Histogram("detect.seconds").Observe(rep.Runtime.Seconds())
	return rep, stats, nil
}

// runScan runs scan.Run over the tiles of src (of window, when non-empty)
// with the detector's chunk classifier, opening opts.StorePath for the
// scan when no store is given. It returns the scan's kernel decision
// count, which it also adds to the registry.
func (d *Detector) runScan(ctx context.Context, src scan.Source, window geom.Rect, opts ScanOptions, cfg Config) (scan.Result, ScanStats, int64, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = cfg.Workers
	}
	store := opts.Store
	if store == nil && opts.StorePath != "" {
		var err error
		if store, err = d.OpenStore(opts.StorePath); err != nil {
			return scan.Result{}, ScanStats{}, 0, err
		}
		defer store.Close()
	}
	var evals atomic.Int64
	res, err := scan.Run(ctx, src, scan.Options{
		Spec:         cfg.Spec,
		Layer:        cfg.Layer,
		Req:          cfg.Requirements,
		Tile:         opts.Tile,
		Window:       window,
		Workers:      workers,
		TileMemBytes: opts.TileMemBytes,
		Store:        store,
		Obs:          cfg.Obs,
	}, d.chunkClassifier(cfg, &evals))
	cfg.Obs.Counter("detect.kernel_evals").Add(evals.Load())
	return res, scanStats(res, store), evals.Load(), err
}

// assembleScanReport turns a merged, seam-deduplicated candidate set into
// the detection outcome fields of rep: candidate/flag/reclaim tallies and
// the hotspot cores, with redundant clip removal (for complete scans) run
// against the layout produced by support. It is shared by the local tiled
// path and the distributed coordinator, which is what makes a merged
// distributed report identical to ScanTiled's.
func assembleScanReport(rep *Report, cands []scan.Candidate, cfg Config, complete bool, support func(cores []geom.Rect) (*layout.Layout, error)) error {
	tel := &rep.Telemetry
	rep.Candidates = len(cands)
	var cores []geom.Rect
	for _, c := range cands {
		if !c.Flagged {
			continue
		}
		rep.Flagged++
		if c.Reclaimed {
			rep.Reclaimed++
			continue
		}
		cores = append(cores, cfg.Spec.CoreFor(c.At))
	}
	tel.AddCounter("detect.flagged", int64(rep.Flagged))
	tel.AddCounter("detect.reclaimed", int64(rep.Reclaimed))
	cfg.Obs.Counter("detect.flagged").Add(int64(rep.Flagged))
	cfg.Obs.Counter("detect.reclaimed").Add(int64(rep.Reclaimed))
	if complete && cfg.EnableRemoval {
		sp := obs.Begin(tel, cfg.Obs, "detect.removal")
		rl, err := support(cores)
		if err != nil {
			rep.Hotspots = cores
			return err
		}
		before := len(cores)
		cores = RemoveRedundant(cores, rl, cfg)
		sp.AddItems(int64(before - len(cores)))
		sp.End()
	}
	rep.Hotspots = cores
	return nil
}

// ScanShardContext evaluates the tiles of one window of the global tile
// grid and returns the raw per-window candidates (seam-deduplicated within
// the window) instead of a report. It is the backend half of the
// distributed scan: the coordinator partitions the grid into contiguous
// windows aligned to whole tile rows, ships each window's halo geometry to
// a backend, and merges the returned sets with scan.MergeSeams before
// ReportFromScan runs the global assembly (flag tallies, redundant clip
// removal). snapBase must be the snap-dedup grid origin of the whole
// layout under scan — its geometry-bounds low corner — not the shard's, so
// every backend anchors the same grid and the merged set matches a
// monolithic run exactly.
func (d *Detector) ScanShardContext(ctx context.Context, l *layout.Layout, window geom.Rect, snapBase geom.Point, opts ScanOptions) ([]scan.Candidate, ScanStats, error) {
	cfg := d.config()
	if err := checkCoordRange(l.Bounds.Union(window), cfg.Spec, opts.Tile); err != nil {
		return nil, ScanStats{}, err
	}
	cfg.Requirements.SnapBase = snapBase
	res, stats, _, err := d.runScan(ctx, scan.NewLayoutSource(l, cfg.Layer), window, opts, cfg)
	return res.Candidates, stats, err
}

// scanStats copies a scan.Result's tile counters, plus the store summary
// when a store was consulted.
func scanStats(res scan.Result, store *scan.Store) ScanStats {
	stats := ScanStats{
		TilesTotal:  res.TilesTotal,
		TilesDone:   res.TilesDone,
		TilesSplit:  res.TilesSplit,
		TilesCached: res.TilesCached,
		TilesDirty:  res.TilesDirty,
	}
	if store != nil {
		ss := store.Stats()
		stats.Store = &ss
	}
	return stats
}

// ReportFromScan assembles the final detection report from a merged
// candidate set exactly as ScanTiledContext does: flag counting, then —
// for complete scans — redundant clip removal over l. The tile counters
// and detect.kernel_evals of a local scan are not in it: the candidates
// do not carry them. The distributed
// coordinator calls it after scan.MergeSeams so its report is identical to
// the local tiled path's; complete=false (an aborted scan) skips removal,
// mirroring the cancellation contract. The caller owns rep.Runtime.
func (d *Detector) ReportFromScan(rep *Report, cands []scan.Candidate, l *layout.Layout, complete bool) error {
	return assembleScanReport(rep, cands, d.config(), complete, func([]geom.Rect) (*layout.Layout, error) {
		return l, nil
	})
}

// chunkClassifier returns the scan.ChunkFunc behind every scan: it builds
// the chunk's clips from the tile layout and runs the multiple kernels and
// then the feedback kernel over them, one batch each, adding the kernel
// decision count to evals. The scan's workers parallelize across chunks;
// within a chunk only the SVM stage fans out (see evalBatchScratch).
func (d *Detector) chunkClassifier(cfg Config, evals *atomic.Int64) scan.ChunkFunc {
	return func(l *layout.Layout, cands []scan.Candidate) error {
		// Across the chunks of a scan the pool converges to one warmed
		// arena per scan worker, and steady-state evaluation allocates
		// nothing.
		s := getScratch()
		defer putScratch(s)
		ps := s.patterns(len(cands))
		for i, c := range cands {
			clip.FromLayoutInto(ps[i], l, cfg.Layer, cfg.Spec, c.At, 0)
		}
		vs := d.evalBatchScratch(s, ps, cfg)
		reclaimed := d.feedbackBatchScratch(s, ps, vs, cfg)
		n := 0
		for i := range vs {
			n += vs[i].evals
			cands[i].Flagged = vs[i].flagged
			cands[i].Reclaimed = vs[i].flagged && reclaimed[i]
		}
		evals.Add(int64(n))
		return nil
	}
}

// gdsSupportLayout flattens just enough of a GDSII hierarchy to support
// redundant clip removal over the given cores: every removal query —
// reframed cores (inside their merge group's bounding box) and
// gravity-shift windows (cores expanded by the ambit) — falls inside the
// union of the cores' ambit-expanded windows merged into disjoint regions,
// so geometry is loaded and clipped per region with no double counting.
func gdsSupportLayout(lib *gds.Library, top string, cores []geom.Rect, cfg Config) (*layout.Layout, error) {
	l := layout.New(lib.Name + "/removal-support")
	for _, w := range disjointWindows(cores, cfg.Spec.Ambit()) {
		fps, err := lib.FlattenWindow(top, w)
		if err != nil {
			return nil, err
		}
		for _, fp := range fps {
			rects, err := (geom.Polygon{Pts: fp.Pts}).Rects()
			if err != nil {
				return nil, err
			}
			for _, r := range rects {
				if c := r.Intersect(w); !c.Empty() {
					l.AddRect(fp.Layer, c)
				}
			}
		}
	}
	return l, nil
}

// disjointWindows expands each core by margin and merges overlapping
// windows (to their union bounding box) until all are pairwise disjoint.
// Merging guarantees every removal merge group — cores connected by
// overlap — lies inside a single window, with its whole ambit-expanded
// extent covered. A window absorbed in a pass is marked dead and the
// survivors are compacted once after the pass, so the comparisons run in
// the order of deleting each absorbed window on the spot, without its
// O(n) shift.
func disjointWindows(cores []geom.Rect, margin geom.Coord) []geom.Rect {
	ws := make([]geom.Rect, len(cores))
	for i, c := range cores {
		ws[i] = c.Expand(margin)
	}
	dead := make([]bool, len(ws))
	for {
		merged := false
		for i := range ws {
			if dead[i] {
				continue
			}
			for j := i + 1; j < len(ws); j++ {
				if !dead[j] && ws[i].Overlaps(ws[j]) {
					ws[i] = ws[i].Union(ws[j])
					dead[j] = true
					merged = true
				}
			}
		}
		if !merged {
			return ws
		}
		live := ws[:0]
		for i, w := range ws {
			if !dead[i] {
				live = append(live, w)
			}
		}
		ws, dead = live, dead[:len(live)]
		clear(dead)
	}
}
