package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"hotspot/internal/bundle"
	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/gds"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
)

// opResult is what the process running one op reports to the parent.
type opResult struct {
	Setup  float64 `json:"setup_s"`
	Wall   float64 `json:"wall_s"`
	CPU    float64 `json:"cpu_s"`
	PeakMB float64 `json:"peak_heap_mb"`
	// Report is the op's outcome. train-b3 reports the trained model's
	// scan of the corpus's paired testing layout, made after the op.
	Report normReport `json:"report"`
	// Digest is the model train-b3 saved.
	Digest string `json:"digest,omitempty"`
	// Dirty counts the tiles each rescan-eco edit re-evaluated.
	Dirty []int `json:"dirty,omitempty"`
	// Replay is the report scan-b3's traced replay assembled.
	Replay *normReport `json:"replay,omitempty"`
	// Layers holds a traced op's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// setupReps is how often each op's process repeats its set-up. set-up
// takes tens of milliseconds, so one reading moves with page-cache and
// heap-growth noise; the median of several holds steady.
const setupReps = 7

// timeSetup runs f setupReps times and returns the median wall seconds.
// The last run's results are the ones the op uses.
func timeSetup(f func() error) (float64, error) {
	ds := make([]float64, setupReps)
	for i := range ds {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t).Seconds()
	}
	runtime.GC() // the op starts from a heap holding only its inputs
	return median(ds), nil
}

// spans records the harness's spans around calls into the program.
type spans struct {
	secs  map[string]float64
	total float64
}

func newSpans() *spans { return &spans{secs: map[string]float64{}} }

func (s *spans) do(name string, f func()) {
	t := time.Now()
	f()
	d := time.Since(t).Seconds()
	s.secs[name] += d
	s.total += d
}

func readClips(path string) ([]*clip.Pattern, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return clip.ReadSet(f)
}

func parseGDS(path string) (*gds.Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gds.Parse(f)
}

func saveModel(det *core.Detector, path string) (int64, error) {
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return 0, err
	}
	return int64(buf.Len()), os.WriteFile(path, buf.Bytes(), 0o644)
}

// trainOp trains on the corpus clip set and saves the model, as
// `hotspot train` does.
func trainOp(fx fixtures, work string, traced bool) (opResult, error) {
	var r opResult
	var clips []*clip.Pattern
	var err error
	r.Setup, err = timeSetup(func() (err error) {
		clips, err = readClips(filepath.Join(fx.corpus, bundle.TrainFile))
		return err
	})
	if err != nil {
		return r, err
	}
	out := filepath.Join(work, modelFile)
	var det *core.Detector
	if traced {
		det, err = trainTraced(clips, out, &r)
	} else {
		m := startMeter()
		det, err = core.Train(clips, core.DefaultConfig())
		if err == nil {
			_, err = saveModel(det, out)
		}
		r.Wall, r.CPU, r.PeakMB = m.end()
	}
	if err != nil {
		return r, err
	}
	r.Digest = det.ModelDigest()
	eval, err := bundle.Load(fx.corpus)
	if err != nil {
		return r, err
	}
	r.Report = normalize(det.Detect(eval.Test))
	return r, nil
}

func trainTraced(clips []*clip.Pattern, out string, r *opResult) (*core.Detector, error) {
	reg := obs.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Obs = reg
	rounds := 0
	cfg.Progress = func(e obs.Event) {
		if e.Stage == "train.feedback" {
			rounds++
		}
	}
	sp := newSpans()
	var (
		p    *core.Prepared
		det  *core.Detector
		size int64
		err  error
	)
	m := startMeter()
	sp.do("core.prepare_s", func() { p, err = core.Prepare(clips, cfg) })
	if err == nil {
		sp.do("core.fit_s", func() { det, err = p.Train() })
	}
	if err == nil {
		sp.do("core.save_s", func() { size, err = saveModel(det, out) })
	}
	r.Wall, r.CPU, r.PeakMB = m.end()
	if err != nil {
		return nil, err
	}
	tel := det.Telemetry()
	counters := reg.CounterValues()
	r.Layers = map[string]float64{
		"core.prepare_s":          sp.secs["core.prepare_s"],
		"core.fit_s":              sp.secs["core.fit_s"],
		"train.kernels_s":         stageSeconds(&tel, "train.kernels"),
		"train.feedback_s":        stageSeconds(&tel, "train.feedback"),
		"train.feedback_rounds":   float64(rounds),
		"svm.smo_iterations":      float64(counters["svm.smo_iterations"]),
		"svm.trainings":           float64(counters["svm.trainings"]),
		"svm.kernel_cache_misses": float64(counters["svm.kernel_cache_misses"]),
		"svm.train_max_s":         reg.Histogram("svm.train_seconds").Stats().Max,
		"svm.support_vectors":     float64(counters["svm.support_vectors"]),
		"core.model_bytes":        float64(size),
		"trace.span_coverage":     sp.total / r.Wall,
	}
	return det, nil
}

func stageSeconds(tel *obs.Telemetry, name string) float64 {
	st, _ := tel.Stage(name)
	return st.Duration.Seconds()
}

// topCell is the structure bundle.Save writes the layout under.
const topCell = "TOP"

// scanOp scans the seed's GDS with the corpus model, as
// `hotspot scan -gds -model` does.
func scanOp(fx fixtures, _ string, traced bool) (opResult, error) {
	var r opResult
	modelPath := filepath.Join(fx.corpus, modelFile)
	gdsPath := filepath.Join(fx.layout, bundle.LayoutFile)
	var det *core.Detector
	var lib *gds.Library
	var err error
	r.Setup, err = timeSetup(func() (err error) {
		if det, err = loadModel(modelPath); err != nil {
			return err
		}
		lib, err = parseGDS(gdsPath)
		return err
	})
	if err != nil {
		return r, err
	}
	var rep core.Report
	var st core.ScanStats
	var prof bytes.Buffer
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		det.SetObs(reg)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, err
		}
	}
	m := startMeter()
	rep, st, err = det.ScanGDSContext(context.Background(), lib, topCell, core.ScanOptions{})
	r.Wall, r.CPU, r.PeakMB = m.end()
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return r, err
	}
	r.Report = normalize(rep)
	if !traced {
		return r, nil
	}

	byStage, err := cpuByLabel(prof.Bytes(), "stage")
	if err != nil {
		return r, err
	}
	counters := reg.CounterValues()
	lookups := counters["eval.memo_hits"] + counters["eval.memo_misses"]
	tiles := reg.Histogram("scan.tile_seconds").Stats()
	r.Layers = map[string]float64{
		"eval.cpu_classify_s":      byStage["classify"],
		"eval.cpu_extract_s":       byStage["extract"],
		"eval.cpu_svm_s":           byStage["svm"],
		"eval.cpu_feedback_s":      byStage["feedback"],
		"eval.memo_hit_ratio":      ratio(counters["eval.memo_hits"], lookups),
		"eval.prescreen_rejects":   float64(counters["eval.prescreen_rejects"]),
		"detect.flagged":           float64(rep.Flagged),
		"detect.reclaimed":         float64(rep.Reclaimed),
		"scan.tiles_total":         float64(st.TilesTotal),
		"scan.tile_p50_s":          tiles.P50,
		"scan.tile_max_s":          tiles.Max,
		"scan.parallel_efficiency": r.CPU / (r.Wall * float64(runtime.GOMAXPROCS(0))),
	}
	// The replay starts from the files again, with a fresh detector: the
	// scan above warmed the first one's verdict memo.
	sp := newSpans()
	replay, err := replayScan(modelPath, gdsPath, sp)
	if err != nil {
		return r, err
	}
	r.Replay = &replay
	for _, name := range []string{"gds.parse_s", "core.load_s", "gds.flatten_s", "clip.extract_s",
		"clip.build_s", "core.classify_s", "core.removal_s"} {
		r.Layers[name] = sp.secs[name]
	}
	r.Layers["clip.candidates"] = float64(replay.Candidates)
	// Inside ScanGDSContext the program's own tile and removal stages
	// stand in for harness spans.
	covered := sp.total + stageSeconds(&rep.Telemetry, "scan.tiles") + stageSeconds(&rep.Telemetry, "detect.removal")
	r.Layers["trace.span_coverage"] = covered / (sp.secs["replay"] + r.Wall)
	return r, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// replayScan re-runs scan-b3 from the files through the exported calls a
// whole-chip Detect is made of, one span around each. sp.secs["replay"]
// is the replay's wall time; it is not part of sp.total.
func replayScan(modelPath, gdsPath string, sp *spans) (normReport, error) {
	start := time.Now()
	var (
		lib *gds.Library
		det *core.Detector
		l   *layout.Layout
		err error
	)
	sp.do("gds.parse_s", func() { lib, err = parseGDS(gdsPath) })
	if err == nil {
		sp.do("core.load_s", func() { det, err = loadModel(modelPath) })
	}
	if err == nil {
		sp.do("gds.flatten_s", func() { l, err = layout.FromGDS(lib, topCell) })
	}
	if err != nil {
		return normReport{}, err
	}
	rep := replayDetect(det, l, sp)
	sp.secs["replay"] = time.Since(start).Seconds()
	return rep, nil
}

// replayDetect is Detector.Detect spelled out through exported calls:
// extraction on the snap grid DetectContext anchors, clip construction,
// batched classification (multiple kernels, then feedback) and redundant
// clip removal.
func replayDetect(det *core.Detector, l *layout.Layout, sp *spans) normReport {
	cfg := det.Config()
	gb := l.GeometryBounds()
	cfg.Requirements.SnapBase = geom.Pt(gb.X0, gb.Y0)
	var cands []clip.Candidate
	sp.do("clip.extract_s", func() {
		cands = clip.ExtractParallelObs(l, cfg.Layer, cfg.Spec, cfg.Requirements, cfg.Workers, nil)
	})
	ps := make([]*clip.Pattern, len(cands))
	sp.do("clip.build_s", func() {
		var wg sync.WaitGroup
		workers := max(cfg.Workers, 1)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(cands); i += workers {
					ps[i] = new(clip.Pattern)
					clip.FromLayoutInto(ps[i], l, cfg.Layer, cfg.Spec, cands[i].At, 0)
				}
			}(w)
		}
		wg.Wait()
	})
	var labels []clip.Label
	sp.do("core.classify_s", func() { labels = det.ClassifyBatch(ps) })
	var cores []geom.Rect
	for i, lab := range labels {
		if lab == clip.Hotspot {
			cores = append(cores, ps[i].Core)
		}
	}
	if cfg.EnableRemoval {
		sp.do("core.removal_s", func() { cores = core.RemoveRedundant(cores, l, cfg) })
	}
	return normReport{Candidates: len(cands), Hotspots: cores}
}

// rescanOp applies the seed's edit sequence to the warm store's layout,
// re-scanning after each edit as `hotspot scan -store -incremental` does.
func rescanOp(fx fixtures, work string, traced bool) (opResult, error) {
	var r opResult
	modelPath := filepath.Join(fx.corpus, modelFile)
	gdsPath := filepath.Join(fx.layout, bundle.LayoutFile)
	var det *core.Detector
	var l *layout.Layout
	var err error
	r.Setup, err = timeSetup(func() (err error) {
		if det, err = loadModel(modelPath); err != nil {
			return err
		}
		lib, err := parseGDS(gdsPath)
		if err != nil {
			return err
		}
		l, err = layout.FromGDS(lib, topCell)
		return err
	})
	if err != nil {
		return r, err
	}
	store := filepath.Join(work, storeFile)
	warm, err := os.ReadFile(filepath.Join(fx.eco, storeFile))
	if err != nil {
		return r, err
	}
	if err := os.WriteFile(store, warm, 0o644); err != nil {
		return r, err
	}
	layer := det.Config().Layer
	edited := editedLayouts(l, layer, planEdits(l.Rects(layer), fx.seed, ecoEdits))
	runtime.GC()

	ctx := context.Background()
	opts := core.ScanOptions{Tile: ecoTile}
	var rep core.Report
	var st core.ScanStats
	if !traced {
		m := startMeter()
		for _, el := range edited {
			if rep, st, err = det.ScanIncrementalContext(ctx, el, store, opts); err != nil {
				break
			}
			r.Dirty = append(r.Dirty, st.TilesDirty)
		}
		r.Wall, r.CPU, r.PeakMB = m.end()
		r.Report = normalize(rep)
		return r, err
	}

	// Traced: ScanIncremental spelled out as OpenStore, a scan against
	// the open store, and Close, with a span around each.
	sp := newSpans()
	var edits []float64
	var hits, lookups int64
	var tiles, removal float64
	m := startMeter()
	for _, el := range edited {
		t := time.Now()
		var s *scan.Store
		sp.do("store.open_s", func() { s, err = det.OpenStore(store) })
		if err != nil {
			break
		}
		o := opts
		o.Store = s
		sp.do("scan", func() { rep, st, err = det.ScanTiledContext(ctx, el, o) })
		sp.do("store.close", s.Close)
		edits = append(edits, time.Since(t).Seconds())
		if err != nil {
			break
		}
		r.Dirty = append(r.Dirty, st.TilesDirty)
		hits += st.Store.Hits
		lookups += st.Store.Hits + st.Store.Misses
		tiles += stageSeconds(&rep.Telemetry, "scan.tiles")
		removal += stageSeconds(&rep.Telemetry, "detect.removal")
	}
	r.Wall, r.CPU, r.PeakMB = m.end()
	if err != nil {
		return r, err
	}
	r.Report = normalize(rep)
	info, err := os.Stat(store)
	if err != nil {
		return r, err
	}
	dirty := 0
	for _, d := range r.Dirty {
		dirty += d
	}
	sort.Float64s(edits)
	// The scan span itself would cover everything; coverage counts only
	// the store spans and the scan's own tile and removal stages.
	covered := sp.secs["store.open_s"] + sp.secs["store.close"] + tiles + removal
	r.Layers = map[string]float64{
		"store.open_s":        sp.secs["store.open_s"],
		"store.bytes":         float64(info.Size()),
		"scan.tiles_total":    float64(st.TilesTotal),
		"scan.tiles_dirty":    float64(dirty),
		"store.hit_ratio":     ratio(hits, lookups),
		"rescan.tiles_s":      tiles,
		"rescan.removal_s":    removal,
		"rescan.edit_p50_s":   median(edits),
		"rescan.edit_max_s":   edits[len(edits)-1],
		"trace.span_coverage": covered / r.Wall,
	}
	return r, nil
}
