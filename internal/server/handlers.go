package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/scan"
	"hotspot/internal/workerpanic"
)

// errorResponse is the JSON error envelope of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// detectResponse answers POST /v1/detect: Labels[i] is the predicted label
// of the i-th posted pattern (+1 hotspot, -1 nonhotspot, matching the
// clip-set JSON label convention).
type detectResponse struct {
	Count    int          `json:"count"`
	Hotspots int          `json:"hotspots"`
	Labels   []clip.Label `json:"labels"`
}

// scanRequest is the POST /v1/scan body: a rectangle soup forming the
// layout window to scan. Layer defaults to the layer the served model was
// trained on. Rects use the clip-set packing [x0,y0,x1,y1] in dbu.
//
// Tiled selects the pipeline explicitly: absent, the server picks tiled
// scanning automatically when the layout reaches Config.TiledScanRects
// rectangles. Tile overrides the tile side (dbu) for tiled scans.
//
// Window turns the request into a shard scan (the distributed
// coordinator's contract): only tiles of the global tile grid inside
// [x0,y0,x1,y1] are evaluated, redundant clip removal is skipped (it is a
// whole-chip pass the coordinator runs after merging), and the raw
// candidates come back in scanResponse.Candidates. Shard requests must
// ship whole rectangles intersecting the window's halo (never clipped —
// dissection anchors derive from each rectangle's true extent) and set
// SnapBase to the full layout's geometry-bounds low corner so every shard
// anchors the same snap-dedup grid.
//
// Incremental opts out of the server's tile result store for this request
// (false forces every tile to be evaluated fresh and does not write the
// results back); absent or true, a server configured with a store serves
// unchanged tiles from it. Ignored when the server has no store.
type scanRequest struct {
	Name        string          `json:"name,omitempty"`
	Layer       *layout.Layer   `json:"layer,omitempty"`
	Rects       [][4]geom.Coord `json:"rects"`
	Tiled       *bool           `json:"tiled,omitempty"`
	Tile        geom.Coord      `json:"tile,omitempty"`
	Window      *[4]geom.Coord  `json:"window,omitempty"`
	SnapBase    *[2]geom.Coord  `json:"snap_base,omitempty"`
	Incremental *bool           `json:"incremental,omitempty"`
}

// scanResponse wraps the detection report with the scanned geometry size.
// Tiled reports which pipeline ran; Tiles carries the tile counters of a
// tiled run (absent otherwise). Candidates is the raw per-shard candidate
// set of a window request (absent for whole-layout scans, whose outcome is
// the Report). Store summarizes the server's tile result store when one
// served this scan: cached/dirty tile counts live in Tiles, the store's
// size and hit totals here.
type scanResponse struct {
	Rects      int              `json:"rects"`
	Report     core.Report      `json:"report"`
	Tiled      bool             `json:"tiled,omitempty"`
	Tiles      *core.ScanStats  `json:"tiles,omitempty"`
	Store      *scan.StoreStats `json:"store,omitempty"`
	Candidates []scan.Candidate `json:"candidates,omitempty"`
}

// reloadRequest optionally overrides the model path to load; empty falls
// back to the path the server was started with.
type reloadRequest struct {
	Path string `json:"path,omitempty"`
}

type reloadResponse struct {
	Path    string `json:"path"`
	Kernels int    `json:"kernels"`
	// Digest is the loaded model's verdict digest (core.ModelDigest) —
	// the identity the tile result store is keyed under, so operators can
	// tell whether a reload invalidated the store.
	Digest  string `json:"digest"`
	Reloads int64  `json:"reloads"`
	// Selection summarizes the cross-validated model-selection provenance
	// carried by the loaded artifact; absent for models trained with fixed
	// hyperparameters.
	Selection *selectionSummary `json:"selection,omitempty"`
}

// selectionSummary is the reload-response digest of a model's
// core.Selection header.
type selectionSummary struct {
	Seed       int64 `json:"seed"`
	Folds      int   `json:"folds"`
	Candidates int   `json:"candidates"`
	Groups     int   `json:"groups"`
	Searched   int   `json:"searched"`
}

// summarizeSelection digests a detector's selection header (nil-safe).
func summarizeSelection(sel *core.Selection) *selectionSummary {
	if sel == nil {
		return nil
	}
	sum := &selectionSummary{
		Seed:       sel.Seed,
		Folds:      sel.Folds,
		Candidates: sel.Candidates,
		Groups:     len(sel.Groups),
	}
	for _, g := range sel.Groups {
		if g.Searched {
			sum.Searched++
		}
	}
	return sum
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone: nothing left to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeBackpressure is the 429 path: the client should retry shortly.
func writeBackpressure(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "%v", err)
}

// writeCtxError maps a context error to 504 (deadline) or 503 (cancelled,
// e.g. client disconnect or shutdown).
func writeCtxError(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	if errors.Is(err, context.DeadlineExceeded) {
		code = http.StatusGatewayTimeout
	}
	writeError(w, code, "%v", err)
}

// writeScanError answers a failed scan or clip classification: 504 or 503
// when the request's context ended, 500 when a worker panicked
// (*workerpanic.Error), and 400 otherwise (the layout or its options were
// refused). A panic's stack goes to the server log, its value alone to the
// client.
func writeScanError(w http.ResponseWriter, err error) {
	var panicked *workerpanic.Error
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeCtxError(w, err)
	case errors.As(err, &panicked):
		log.Printf("hotspotd: request failed: %v", err)
		writeError(w, http.StatusInternalServerError, "%s%v", workerpanic.Prefix, panicked.Value)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// requestContext derives the request's working context: RequestTimeout by
// default, tightened (never loosened) by a `timeout` query parameter.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		if td, err := time.ParseDuration(v); err == nil && td > 0 && td < d {
			d = td
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// body caps a request body at MaxBodyBytes. A read past the cap fails
// with *http.MaxBytesError instead of ending the body early, so an
// oversized request is refused (see bodyStatus) rather than decoded cut.
func (s *Server) body(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
}

// bodyStatus maps a request-body decoding error to its status: 413 when
// the body ran past MaxBodyBytes, 400 for anything else.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handleDetect classifies a posted clip set. Every clip is enqueued on the
// shared pool (coalescing across requests); a full queue rejects the whole
// request with 429 before any waiting happens.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	patterns, err := clip.ReadSet(s.body(w, r))
	if err != nil {
		writeError(w, bodyStatus(err), "%v", err)
		return
	}
	if len(patterns) == 0 {
		writeError(w, http.StatusBadRequest, "empty pattern set")
		return
	}
	if len(patterns) > s.cfg.MaxPatterns {
		writeError(w, http.StatusRequestEntityTooLarge,
			"%d patterns exceed the %d-pattern request cap", len(patterns), s.cfg.MaxPatterns)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	tasks := make([]*task, len(patterns))
	for i, p := range patterns {
		t := newTask(ctx, p)
		if err := s.pool.submit(t); err != nil {
			cancel() // already-queued siblings are skipped by the workers
			if errors.Is(err, ErrQueueFull) {
				writeBackpressure(w, err)
			} else {
				writeError(w, http.StatusServiceUnavailable, "%v", err)
			}
			return
		}
		tasks[i] = t
	}

	resp := detectResponse{Count: len(patterns), Labels: make([]clip.Label, len(patterns))}
	for i, t := range tasks {
		select {
		case res := <-t.result:
			if res.err != nil {
				writeScanError(w, res.err)
				return
			}
			resp.Labels[i] = res.label
			if res.label == clip.Hotspot {
				resp.Hotspots++
			}
		case <-ctx.Done():
			writeCtxError(w, ctx.Err())
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleScan runs the full detection pipeline (clip extraction,
// multi-kernel evaluation, feedback, removal) over a posted layout window.
// Scans are heavyweight, so they bypass the clip queue and are instead
// bounded by their own concurrency limit.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	select {
	case s.scanSem <- struct{}{}:
		defer func() { <-s.scanSem }()
	default:
		writeBackpressure(w, fmt.Errorf("server: scan concurrency limit (%d) reached", s.cfg.ScanConcurrency))
		return
	}

	var req scanRequest
	if err := json.NewDecoder(s.body(w, r)).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), "decoding scan request: %v", err)
		return
	}
	if len(req.Rects) == 0 {
		writeError(w, http.StatusBadRequest, "empty layout: no rects")
		return
	}
	det := s.detector()
	lay := det.Config().Layer
	if req.Layer != nil {
		lay = *req.Layer
	}
	name := req.Name
	if name == "" {
		name = "scan"
	}
	l := layout.New(name)
	for _, v := range req.Rects {
		l.AddRect(lay, geom.Rect{X0: v[0], Y0: v[1], X1: v[2], Y1: v[3]})
	}
	if l.NumRects() == 0 {
		writeError(w, http.StatusBadRequest, "empty layout: all rects degenerate")
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	store := s.scanStore()
	if req.Incremental != nil && !*req.Incremental {
		store = nil
	}
	if req.Window != nil {
		s.handleScanWindow(ctx, w, det, l, &req, store)
		return
	}
	tiled := s.cfg.TiledScanRects > 0 && l.NumRects() >= s.cfg.TiledScanRects
	if req.Tiled != nil {
		tiled = *req.Tiled
	}
	resp := scanResponse{Rects: l.NumRects(), Tiled: tiled}
	var err error
	if tiled {
		var stats core.ScanStats
		resp.Report, stats, err = det.ScanTiledContext(ctx, l, core.ScanOptions{Tile: req.Tile, Store: store})
		resp.Tiles = &stats
		resp.Store = stats.Store
	} else {
		resp.Report, err = det.DetectContext(ctx, l)
	}
	if err != nil {
		writeScanError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleScanWindow serves one shard of a distributed scan: the window's
// tiles are evaluated through the tiled pipeline and the raw candidates
// returned for the coordinator to merge. SnapBase defaults to the posted
// geometry's own bounds for direct callers, but coordinators always send
// the whole-chip origin explicitly.
func (s *Server) handleScanWindow(ctx context.Context, w http.ResponseWriter, det *core.Detector, l *layout.Layout, req *scanRequest, store *scan.Store) {
	win := geom.R(req.Window[0], req.Window[1], req.Window[2], req.Window[3])
	if win.Empty() {
		writeError(w, http.StatusBadRequest, "empty scan window %v", *req.Window)
		return
	}
	gb := l.GeometryBounds()
	snap := geom.Pt(gb.X0, gb.Y0)
	if req.SnapBase != nil {
		snap = geom.Pt(req.SnapBase[0], req.SnapBase[1])
	}
	cands, stats, err := det.ScanShardContext(ctx, l, win, snap, core.ScanOptions{Tile: req.Tile, Store: store})
	if err != nil {
		writeScanError(w, err)
		return
	}
	if cands == nil {
		cands = []scan.Candidate{} // an empty shard is a result, not an omission
	}
	writeJSON(w, http.StatusOK, scanResponse{
		Rects:      l.NumRects(),
		Tiled:      true,
		Tiles:      &stats,
		Store:      stats.Store,
		Candidates: cands,
	})
}

// handleReload swaps in a freshly loaded model without dropping traffic:
// requests in flight finish on the detector they started with.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if err := json.NewDecoder(s.body(w, r)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, bodyStatus(err), "decoding reload request: %v", err)
		return
	}
	path := req.Path
	if path == "" {
		path = s.cfg.ModelPath
	}
	if path == "" {
		writeError(w, http.StatusBadRequest, "no model path: server started without -model and request names none")
		return
	}
	det, err := loadModel(path)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if err := s.swap(det); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{
		Path:      path,
		Kernels:   det.NumKernels(),
		Digest:    det.ModelDigest(),
		Reloads:   s.reloads.Load(),
		Selection: summarizeSelection(det.Selection()),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() || s.detector() == nil {
		writeError(w, http.StatusServiceUnavailable, "not ready")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ready",
		"kernels": s.detector().NumKernels(),
	})
}
