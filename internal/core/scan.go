package core

import (
	"context"
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
	// Tile is the tile side in dbu; 0 picks scan.DefaultTileFactor times
	// the clip side. Must be at least the core side.
	Tile geom.Coord
	// Workers bounds the tile worker pool; 0 uses the detector's
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

// ScanTiled evaluates a testing layout through the tiled scan pipeline.
// The reported hotspot set is exactly Detect's — tiling, worker count, and
// adaptive splitting never change the outcome, only the memory profile and
// wall time — which is verified by TestScanTiledMatchesDetect.
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
	// Every tile must share one snap-dedup grid origin, and it must be the
	// one a monolithic Detect of the same layout anchors on: the geometry
	// bounds (see DetectContext).
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
	// this matches what flatten-then-Detect anchors its snap grid on.
	cfg.Requirements.SnapBase = geom.Pt(src.Bounds().X0, src.Bounds().Y0)
	return d.scanWith(ctx, src, opts, cfg, func(cores []geom.Rect) (*layout.Layout, error) {
		return gdsSupportLayout(lib, top, cores, cfg)
	})
}

// scanWith runs the shared tiled-scan skeleton: configure scan.Run with
// the detector's tile evaluator, then assemble a Report from the merged
// candidates, running redundant clip removal against the layout produced
// by support (the whole layout for in-memory scans, a windowed flatten
// around the cores for GDS scans).
func (d *Detector) scanWith(ctx context.Context, src scan.Source, opts ScanOptions, cfg Config, support func(cores []geom.Rect) (*layout.Layout, error)) (Report, ScanStats, error) {
	start := time.Now()
	var rep Report
	var stats ScanStats
	tel := &rep.Telemetry

	workers := opts.Workers
	if workers <= 0 {
		workers = cfg.Workers
	}
	store := opts.Store
	if store == nil && opts.StorePath != "" {
		var err error
		store, err = d.OpenStore(opts.StorePath)
		if err != nil {
			return rep, stats, err
		}
		defer store.Close()
	}
	sp := obs.Begin(tel, cfg.Obs, "scan.tiles")
	res, err := scan.Run(ctx, src, scan.Options{
		Spec:         cfg.Spec,
		Layer:        cfg.Layer,
		Req:          cfg.Requirements,
		Tile:         opts.Tile,
		Workers:      workers,
		TileMemBytes: opts.TileMemBytes,
		Store:        store,
		Obs:          cfg.Obs,
	}, d.tileEvaluator(cfg))
	stats = scanStats(res, store)
	sp.AddItems(int64(res.TilesDone))
	sp.End()
	tel.AddCounter("scan.tiles_total", int64(res.TilesTotal))
	tel.AddCounter("scan.tiles_split", int64(res.TilesSplit))
	if store != nil {
		tel.AddCounter("scan.tiles_cached", int64(res.TilesCached))
		tel.AddCounter("scan.tiles_dirty", int64(res.TilesDirty))
	}

	// Assemble the report even when err != nil: the partial candidates are
	// the caller's progress picture, and the contract (like DetectContext's)
	// is that a non-nil error means "incomplete". An incomplete scan skips
	// removal (its inputs are partial anyway).
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
	cfg.Requirements.SnapBase = snapBase
	workers := opts.Workers
	if workers <= 0 {
		workers = cfg.Workers
	}
	store := opts.Store
	if store == nil && opts.StorePath != "" {
		var err error
		store, err = d.OpenStore(opts.StorePath)
		if err != nil {
			return nil, ScanStats{}, err
		}
		defer store.Close()
	}
	res, err := scan.Run(ctx, scan.NewLayoutSource(l, cfg.Layer), scan.Options{
		Spec:         cfg.Spec,
		Layer:        cfg.Layer,
		Req:          cfg.Requirements,
		Tile:         opts.Tile,
		Window:       window,
		Workers:      workers,
		TileMemBytes: opts.TileMemBytes,
		Store:        store,
		Obs:          cfg.Obs,
	}, d.tileEvaluator(cfg))
	return res.Candidates, scanStats(res, store), err
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
// for complete scans — redundant clip removal over l. The distributed
// coordinator calls it after scan.MergeSeams so its report is identical to
// the local tiled path's; complete=false (an aborted scan) skips removal,
// mirroring the cancellation contract. The caller owns rep.Runtime.
func (d *Detector) ReportFromScan(rep *Report, cands []scan.Candidate, l *layout.Layout, complete bool) error {
	return assembleScanReport(rep, cands, d.config(), complete, func([]geom.Rect) (*layout.Layout, error) {
		return l, nil
	})
}

// tileEvaluator returns the scan.TileFunc wrapping this detector: per-tile
// clip extraction followed by chunked batch evaluation, exactly
// DetectContext's evaluation loop. Intra-tile evaluation is serial —
// parallelism lives at the tile level, where the work-stealing pool keeps
// every worker busy without nesting thread pools.
func (d *Detector) tileEvaluator(cfg Config) scan.TileFunc {
	evalCfg := cfg
	evalCfg.Workers = 1
	return func(ctx context.Context, tl *layout.Layout, tile geom.Rect) ([]scan.Candidate, error) {
		kcs := clip.ExtractTile(tl, cfg.Layer, cfg.Spec, cfg.Requirements, tile)
		out := make([]scan.Candidate, 0, len(kcs))
		// One pooled arena per tile: across the thousands of tiles of a
		// full-chip scan the pool converges to one warmed arena per scan
		// worker, and the steady-state chunk evaluation allocates nothing.
		s := getScratch()
		defer putScratch(s)
		for lo := 0; lo < len(kcs); lo += detectChunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			hi := min(lo+detectChunk, len(kcs))
			chunk := kcs[lo:hi]
			ps := s.patterns(len(chunk))
			for i, kc := range chunk {
				clip.FromLayoutInto(ps[i], tl, cfg.Layer, cfg.Spec, kc.At, 0)
			}
			vs := d.evalBatchScratch(s, ps, evalCfg)
			reclaimed := d.feedbackBatchScratch(s, ps, vs, evalCfg)
			for i := range vs {
				out = append(out, scan.Candidate{
					At:        chunk[i].At,
					Key:       chunk[i].Key,
					Flagged:   vs[i].flagged,
					Reclaimed: vs[i].flagged && reclaimed[i],
				})
			}
		}
		return out, nil
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
// extent covered.
func disjointWindows(cores []geom.Rect, margin geom.Coord) []geom.Rect {
	ws := make([]geom.Rect, len(cores))
	for i, c := range cores {
		ws[i] = c.Expand(margin)
	}
	for {
		merged := false
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				if ws[i].Overlaps(ws[j]) {
					ws[i] = ws[i].Union(ws[j])
					ws = append(ws[:j], ws[j+1:]...)
					merged = true
					j--
				}
			}
		}
		if !merged {
			return ws
		}
	}
}
