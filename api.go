package hotspot

// The public API: the implementation lives under internal/ (one package
// per subsystem; see README Architecture), and this façade re-exports the
// surface a downstream user needs — training, detection, scoring, model
// persistence, benchmark generation, and the clip/layout types they
// operate on. Type aliases keep the façade zero-cost: values flow between
// the façade and the internal packages without conversion.

import (
	"context"
	"io"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/dist"
	"hotspot/internal/geom"
	"hotspot/internal/iccad"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/server"
	"hotspot/internal/train"
)

// Geometry types.
type (
	// Coord is a layout coordinate in database units (1 dbu = 1 nm).
	Coord = geom.Coord
	// Point is a 2-D layout point.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Layout is a flat multi-layer layout with spatial indexing.
	Layout = layout.Layout
	// Layer is a GDSII layer number.
	Layer = layout.Layer
)

// R constructs a normalized rectangle.
func R(x0, y0, x1, y1 Coord) Rect { return geom.R(x0, y0, x1, y1) }

// Pt constructs a point.
func Pt(x, y Coord) Point { return geom.Pt(x, y) }

// NewLayout creates an empty layout.
func NewLayout(name string) *Layout { return layout.New(name) }

// Clip types.
type (
	// Pattern is one layout clip: a window of geometry with a designated
	// core region and an optional label.
	Pattern = clip.Pattern
	// Label classifies a pattern (Hotspot / NonHotspot).
	Label = clip.Label
	// ClipSpec fixes the clip geometry (core and clip side lengths).
	ClipSpec = clip.Spec
)

// Pattern labels.
const (
	Hotspot    = clip.Hotspot
	NonHotspot = clip.NonHotspot
)

// DefaultClipSpec is the ICCAD-2012 contest clip geometry: a 1.2 µm core
// inside a 4.8 µm clip.
var DefaultClipSpec = clip.DefaultSpec

// Framework types.
type (
	// Config carries every tunable of the detection framework.
	Config = core.Config
	// Detector is a trained hotspot-detection model.
	Detector = core.Detector
	// Report is the outcome of evaluating a testing layout.
	Report = core.Report
	// Score grades a report against ground truth per the contest rules.
	Score = core.Score
)

// DefaultConfig returns the paper's §V parameterization.
func DefaultConfig() Config { return core.DefaultConfig() }

// BasicConfig returns the single-huge-kernel baseline configuration
// (Table III "Basic").
func BasicConfig() Config { return core.BasicConfig() }

// Train builds a detector from a labelled training clip set.
func Train(train []*Pattern, cfg Config) (*Detector, error) {
	return core.Train(train, cfg)
}

// LoadModel restores a detector saved with Detector.Save.
func LoadModel(r io.Reader) (*Detector, error) { return core.Load(r) }

// Model-selection types. TrainCV replaces the fixed §V hyperparameters
// with a per-topology-group cross-validated search: stratified k-fold CV
// over a (C, gamma, tolerance) grid with successive-halving pruning,
// fanned out across (group, fold, candidate) on a bounded worker pool.
// Results are deterministic for a fixed seed at any worker count, and the
// selection provenance is persisted inside the model artifact (see
// README, "Training & model selection").
type (
	// CVOptions parameterizes the search (folds, seed, workers, grid);
	// its zero value selects 4 folds, the default grid, and one worker
	// per CPU.
	CVOptions = train.Options
	// CVGrid is the searched hyperparameter lattice.
	CVGrid = train.Grid
	// CVResult is the search outcome: per-group winners, every trial's
	// metrics, and the final trained Detector.
	CVResult = train.Result
	// GroupParams is one topology group's hyperparameter override
	// (Config.GroupParams).
	GroupParams = core.GroupParams
	// Selection is the provenance header a cross-validated model carries
	// (Detector.Selection()): seed, grid, fold scores, per-group winners.
	Selection = core.Selection
)

// DefaultCVGrid returns the built-in search lattice: four decades of C
// and gamma around the paper's (1000, 0.01) seed.
func DefaultCVGrid() CVGrid { return train.DefaultGrid() }

// TrainCV builds a detector from a labelled training clip set with
// cross-validated per-group hyperparameter selection. The returned
// result carries the final detector (CVResult.Detector) plus the full
// per-group search record.
func TrainCV(patterns []*Pattern, cfg Config, opts CVOptions) (*CVResult, error) {
	return train.CrossValidate(patterns, cfg, opts)
}

// Evaluate grades reported hotspot cores against ground-truth cores.
func Evaluate(reported, truth []Rect, areaDBU2 int64, spec ClipSpec) Score {
	return core.EvaluateReport(reported, truth, areaDBU2, spec)
}

// Tiled scanning types. Detector.ScanTiled / ScanTiledContext /
// ScanGDSContext evaluate chip-scale layouts in bounded memory: the
// layout is cut into halo-overlapped tiles processed by a work-stealing
// worker pool, with a resumable tile result store and a report identical
// to Detect (see docs/ARCHITECTURE.md, "Chip-scale tiled scanning").
type (
	// ScanOptions parameterizes a tiled scan (tile side, workers, tile
	// result store, per-tile memory budget); its zero value is usable.
	ScanOptions = core.ScanOptions
	// ScanStats reports a tiled scan's orchestration counters.
	ScanStats = core.ScanStats
)

// Distributed scanning types. ScanDistributed shards the tile grid into
// contiguous bands and fans them out across a fleet of hotspotd backends
// over /v1/scan, merging per-shard candidates through the canonical seam
// dedup so the report is identical to a local ScanTiled run — with
// per-shard deadlines, retry/backoff, failover re-dispatch, and graceful
// degradation to the local path when every backend is down (see
// docs/ARCHITECTURE.md, "Distributed sharded scanning").
type (
	// DistOptions parameterizes a distributed scan (backends, shard
	// count, deadlines, retry budget, shard store); only Backends is
	// required.
	DistOptions = dist.Options
	// DistStats reports a distributed scan's orchestration counters
	// (shards done/cached/redispatched, retries, per-backend scorecard).
	DistStats = dist.Stats
	// BackendStatus is one backend's end-of-scan scorecard.
	BackendStatus = dist.BackendStatus
)

// ErrAllBackendsDown reports that every backend was unreachable and local
// fallback was disabled (DistOptions.NoLocalFallback).
var ErrAllBackendsDown = dist.ErrAllBackendsDown

// ScanDistributed evaluates a testing layout across opts.Backends. The
// detector plans the shards, serves as the local fallback, and assembles
// the final report; every backend must serve the same model.
func ScanDistributed(ctx context.Context, det *Detector, l *Layout, opts DistOptions) (Report, DistStats, error) {
	return dist.Scan(ctx, det, l, opts)
}

// Observability types. Set Config.Obs to a NewRegistry() to collect
// counters and duration histograms across training and detection; set
// Config.Progress to stream per-round training events. Report.Telemetry
// and Detector.Telemetry() carry the per-stage breakdowns either way.
type (
	// Registry collects counters, gauges, and duration histograms. A nil
	// *Registry is valid and free: every instrument it hands out no-ops.
	Registry = obs.Registry
	// Telemetry is a pipeline run's per-stage timing/count record.
	Telemetry = obs.Telemetry
	// StageStats is one pipeline stage's duration and item count.
	StageStats = obs.StageStats
	// Event is one training progress event (Config.Progress).
	Event = obs.Event
)

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Serving types. Server is hotspotd as a library: an HTTP/JSON inference
// API (batch clip classification, layout scanning, hot model reload,
// health/readiness, pprof + expvar) over a Detector, with a bounded
// batching worker pool, per-request deadlines, 429 backpressure, and
// graceful drain. See `hotspot serve` for the packaged daemon.
type (
	// Server serves a Detector over HTTP.
	Server = server.Server
	// ServerConfig parameterizes the server; its zero value gets
	// serving-sensible defaults.
	ServerConfig = server.Config
)

// NewServer loads the model at cfg.ModelPath and serves it.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// NewServerWithDetector serves an in-process detector (trained or loaded
// by the caller).
func NewServerWithDetector(det *Detector, cfg ServerConfig) (*Server, error) {
	return server.NewWithDetector(det, cfg)
}

// Benchmark types.
type (
	// Benchmark is a generated synthetic benchmark: training clips, a
	// testing layout, and ground-truth hotspot cores.
	Benchmark = iccad.Benchmark
	// BenchmarkConfig parameterizes benchmark generation.
	BenchmarkConfig = iccad.Config
)

// GenerateBenchmark builds a benchmark deterministically.
func GenerateBenchmark(cfg BenchmarkConfig) *Benchmark { return iccad.Generate(cfg) }

// BenchmarkSuite lists the six ICCAD-2012-style benchmark configurations.
func BenchmarkSuite() []BenchmarkConfig {
	out := make([]BenchmarkConfig, len(iccad.Suite))
	copy(out, iccad.Suite)
	return out
}
