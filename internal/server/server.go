// Package server implements hotspotd, the long-running inference server
// over a trained core.Detector: an HTTP/JSON API for batch clip
// classification and layout-window scanning, built like a production
// service — a bounded worker pool that coalesces requests into batches,
// per-request deadlines, explicit backpressure (429 + Retry-After on queue
// saturation), hot model reload, health/readiness probes, pprof + expvar
// debug endpoints, and graceful drain of in-flight work on shutdown.
//
// Endpoints:
//
//	POST /v1/detect   classify a batch of clips (clip.WriteSet JSON body)
//	POST /v1/scan     extract + classify clips over a posted layout window
//	POST /v1/reload   swap in a freshly loaded model without dropping traffic
//	GET  /healthz     liveness (process is up)
//	GET  /readyz      readiness (model loaded, not draining)
//	     /debug/      net/http/pprof and expvar (registry under "hotspotd")
package server

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
	"hotspot/internal/simd"
)

// Config parameterizes the server. The zero value is usable: every field
// has a serving-sensible default applied by New/NewWithDetector.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// ModelPath is a model persisted with Detector.Save. New loads it at
	// startup, and POST /v1/reload re-reads it when the request names no
	// other path. Optional with NewWithDetector.
	ModelPath string

	// Workers bounds the classification worker pool (default GOMAXPROCS).
	Workers int
	// QueueSize bounds the pending-clip queue shared by all requests;
	// submissions beyond it are rejected with 429 (default 1024).
	QueueSize int
	// BatchSize caps how many queued clips one worker coalesces per wakeup
	// (default 32).
	BatchSize int
	// BatchWait is how long a worker holds its first clip waiting for a
	// fuller batch (default 2ms; <0 disables waiting).
	BatchWait time.Duration
	// RequestTimeout is the per-request deadline, and the ceiling for
	// tighter client-requested ?timeout= values (default 30s).
	RequestTimeout time.Duration
	// DrainTimeout caps graceful shutdown: in-flight requests get this
	// long to finish after the stop signal (default 15s).
	DrainTimeout time.Duration
	// MaxPatterns caps the clip count of one /v1/detect body; larger
	// bodies get 413 (default 10000).
	MaxPatterns int
	// MaxBodyBytes caps request body size (default 64 MiB).
	MaxBodyBytes int64
	// ScanConcurrency bounds concurrent /v1/scan evaluations, which each
	// own a full detection pipeline run (default 2; excess gets 429).
	ScanConcurrency int
	// StorePath, when non-empty, maintains a persistent tile result store
	// at this path: /v1/scan requests (whole-layout and window alike)
	// serve unchanged tiles from the store and evaluate only dirty
	// ones, with cache counters in the response. The store is keyed under
	// the served model's digest; /v1/reload with a different model
	// invalidates and rebuilds it. Clients opt out per request with
	// "incremental": false.
	StorePath string

	// Obs receives the server's HTTP and queue metrics and is wired into
	// the served detector. nil allocates a fresh registry so /debug/vars
	// is always live.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.BatchWait == 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.BatchWait < 0 {
		c.BatchWait = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 10000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.ScanConcurrency <= 0 {
		c.ScanConcurrency = 2
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	return c
}

// Server serves a Detector over HTTP. Construct with New or
// NewWithDetector; a zero Server is not usable.
type Server struct {
	cfg Config
	reg *obs.Registry

	// mu guards det and store: /v1/reload swaps the detector (and, on a
	// model change, the tile result store it keys) while /v1/detect and
	// /v1/scan hold read snapshots, mirroring the Detector's own RWMutex
	// discipline for its config.
	mu          sync.RWMutex
	det         *core.Detector
	store       *scan.Store
	storeDigest string

	pool    *pool
	scanSem chan struct{}
	ready   atomic.Bool
	reloads atomic.Int64
}

// New loads cfg.ModelPath with core.Load and serves it.
func New(cfg Config) (*Server, error) {
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("server: Config.ModelPath is required (or use NewWithDetector)")
	}
	det, err := loadModel(cfg.ModelPath)
	if err != nil {
		return nil, err
	}
	return NewWithDetector(det, cfg)
}

// NewWithDetector serves an already-constructed detector (trained in
// process or loaded by the caller). The detector's metrics are redirected
// into the server's registry.
func NewWithDetector(det *core.Detector, cfg Config) (*Server, error) {
	if det == nil {
		return nil, fmt.Errorf("server: nil detector")
	}
	return newServer(det, nil, cfg)
}

// newServer is the shared constructor; classify overrides the pool's batch
// classification function (tests inject slow or gated classifiers here —
// nil means "classify with the current detector").
func newServer(det *core.Detector, classify func([]*clip.Pattern) []clip.Label, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Obs,
		det:     det,
		scanSem: make(chan struct{}, cfg.ScanConcurrency),
	}
	if cfg.StorePath != "" {
		digest := det.ModelDigest()
		st, err := scan.OpenStore(cfg.StorePath, digest, true)
		if err != nil {
			return nil, fmt.Errorf("server: opening tile result store: %w", err)
		}
		s.store = st
		s.storeDigest = digest
	}
	det.SetObs(s.reg)
	if classify == nil {
		classify = func(ps []*clip.Pattern) []clip.Label {
			return s.detector().ClassifyBatch(ps)
		}
	}
	s.pool = newPool(cfg.Workers, cfg.QueueSize, cfg.BatchSize, cfg.BatchWait, classify, s.reg)
	s.reg.PublishExpvar("hotspotd")
	simd.PublishExpvar()
	s.ready.Store(true)
	return s, nil
}

func loadModel(path string) (*core.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: opening model: %w", err)
	}
	defer f.Close()
	det, err := core.Load(f)
	if err != nil {
		return nil, fmt.Errorf("server: loading model %s: %w", path, err)
	}
	return det, nil
}

// detector returns the currently served detector (reload-safe snapshot).
func (s *Server) detector() *core.Detector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.det
}

// swap installs a new detector; in-flight requests finish on the one they
// started with. When the server maintains a tile result store and the new
// model's digest differs, the store is reopened under the new digest —
// which discards every cached verdict, since a different model can flip
// any of them. A store that fails to reopen fails the swap, leaving the
// old detector and store serving.
func (s *Server) swap(det *core.Detector) error {
	det.SetObs(s.reg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.StorePath != "" {
		if digest := det.ModelDigest(); digest != s.storeDigest {
			st, err := scan.OpenStore(s.cfg.StorePath, digest, true)
			if err != nil {
				return fmt.Errorf("server: reopening tile result store: %w", err)
			}
			// The old store is deliberately not closed here: an in-flight
			// scan may still hold it. Its file was atomically replaced by
			// the reopen (write-then-rename), so late writes land in the
			// discarded inode; the handle is released when the last
			// reference drops.
			s.store = st
			s.storeDigest = digest
			s.reg.Counter("server.store_invalidations").Inc()
		}
	}
	s.det = det
	s.reloads.Add(1)
	s.reg.Counter("server.reloads").Inc()
	return nil
}

// scanStore returns the server's tile result store (reload-safe snapshot;
// nil when Config.StorePath is unset).
func (s *Server) scanStore() *scan.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}

// Handler returns the server's complete HTTP surface. The mux is
// self-contained (no default-mux side effects), so it can be mounted under
// httptest or a parent server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/detect", s.instrument("detect", s.handleDetect))
	mux.Handle("POST /v1/scan", s.instrument("scan", s.handleScan))
	mux.Handle("POST /v1/reload", s.instrument("reload", s.handleReload))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// ListenAndServe listens on cfg.Addr and serves until ctx is cancelled,
// then drains gracefully (see Serve).
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then shuts down gracefully:
// readiness flips to 503 (so load balancers stop routing), the listener
// closes, in-flight requests get up to DrainTimeout to complete, and the
// worker pool drains its queue before Serve returns. A nil return means a
// clean drain; context.DeadlineExceeded means DrainTimeout expired with
// requests still in flight (their handlers are bounded by RequestTimeout).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Listener failure: nothing to drain but the pool.
		s.ready.Store(false)
		s.pool.shutdown()
		s.closeStore()
		return err
	case <-ctx.Done():
	}
	s.ready.Store(false)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	s.pool.shutdown()
	s.closeStore()
	<-errc // always http.ErrServerClosed after Shutdown
	return err
}

// Close releases the worker pool and the tile result store without
// serving (for embedders that only used Handler). Idempotent.
func (s *Server) Close() {
	s.ready.Store(false)
	s.pool.shutdown()
	s.closeStore()
}

// closeStore flushes and releases the tile result store. Idempotent; runs
// after drain, when no scan holds the store.
func (s *Server) closeStore() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}
