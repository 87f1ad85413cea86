package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/iccad"
	"hotspot/internal/obs"
	"hotspot/internal/workerpanic"
)

// The package fixture: one small benchmark and one trained detector,
// shared by every test (training dominates the suite's runtime).
var (
	fixOnce  sync.Once
	fixBench *iccad.Benchmark
	fixDet   *core.Detector
	fixErr   error
)

func fixture(t testing.TB) (*iccad.Benchmark, *core.Detector) {
	t.Helper()
	fixOnce.Do(func() {
		fixBench = iccad.Generate(iccad.Config{
			Name: "server_test", Process: "32nm",
			W: 60000, H: 60000,
			TestHS: 16, TrainHS: 30, TrainNHS: 120,
			FillFactor: 0.5, Seed: 11, Workers: 8,
		})
		fixDet, fixErr = core.Train(fixBench.Train, core.DefaultConfig())
	})
	if fixErr != nil {
		t.Fatalf("fixture train: %v", fixErr)
	}
	return fixBench, fixDet
}

// testServer builds a server around the fixture detector; classify == nil
// uses the real model, and a per-clip fake is passed through perClip.
func testServer(t testing.TB, classify func([]*clip.Pattern) []clip.Label, cfg Config) *Server {
	t.Helper()
	_, det := fixture(t)
	s, err := newServer(det, classify, cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func clipSetBody(t testing.TB, patterns []*clip.Pattern) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := clip.WriteSet(&buf, patterns); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func postJSON(t testing.TB, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s response: %v", url, err)
	}
	return resp, data
}

func TestDetectEndpoint(t *testing.T) {
	b, det := fixture(t)
	s := testServer(t, nil, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	patterns := b.Train[:40]
	resp, data := postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, patterns))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var dr detectResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if dr.Count != len(patterns) || len(dr.Labels) != len(patterns) {
		t.Fatalf("count %d / %d labels, want %d", dr.Count, len(dr.Labels), len(patterns))
	}
	hotspots := 0
	for i, p := range patterns {
		want := det.ClassifyPattern(p)
		if dr.Labels[i] != want {
			t.Fatalf("pattern %d: label %v, want %v", i, dr.Labels[i], want)
		}
		if want == clip.Hotspot {
			hotspots++
		}
	}
	if dr.Hotspots != hotspots {
		t.Fatalf("hotspot count %d, want %d", dr.Hotspots, hotspots)
	}
}

// TestDetectLoneClipUsesMemo: a one-clip /v1/detect request goes through
// the detector's batched path behind the verdict memo, as a coalesced
// batch does, so posting the same clip twice looks it up in the memo twice
// and answers at least the repeat from it.
func TestDetectLoneClipUsesMemo(t *testing.T) {
	b, _ := fixture(t)
	reg := obs.NewRegistry()
	s := testServer(t, nil, Config{Obs: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, b.Train[:1]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	c := reg.Snapshot().Counters
	hits, misses := c["eval.memo_hits"], c["eval.memo_misses"]
	if hits+misses != 2 || hits < 1 {
		t.Fatalf("eval.memo_hits %d, eval.memo_misses %d; want 2 lookups with at least 1 hit", hits, misses)
	}
}

// TestDetectClassifierPanic: a batch classifier that panics fails that
// batch's request with 500 and the panic value, and the pool worker lives
// on: /readyz still answers 200 and the next request is classified.
func TestDetectClassifierPanic(t *testing.T) {
	b, det := fixture(t)
	s := testServer(t, nil, Config{Workers: 1, BatchSize: 64, BatchWait: 50 * time.Millisecond})
	var calls atomic.Int32
	real := s.pool.classify
	s.pool.classify = func(ps []*clip.Pattern) []clip.Label {
		if calls.Add(1) == 1 {
			panic("classify boom")
		}
		return real(ps)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	patterns := b.Train[:8]
	resp, data := postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, patterns))
	var eb errorResponse
	if err := json.Unmarshal(data, &eb); err != nil || resp.StatusCode != http.StatusInternalServerError || eb.Error != workerpanic.Prefix+"classify boom" {
		t.Fatalf("panicking batch: status %d, body %s; want 500 %q", resp.StatusCode, data, workerpanic.Prefix+"classify boom")
	}
	if calls.Load() != 1 {
		t.Fatalf("%d batch classifications, want the request's clips in one batch", calls.Load())
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after a classifier panic: %d, want 200", ready.StatusCode)
	}
	resp, data = postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, patterns))
	var dr detectResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &dr) != nil {
		t.Fatalf("request after the panic: status %d, body %s", resp.StatusCode, data)
	}
	for i, p := range patterns {
		if want := det.ClassifyPattern(p); dr.Labels[i] != want {
			t.Fatalf("pattern %d after the panic: label %v, want %v", i, dr.Labels[i], want)
		}
	}
}

// TestDetectConcurrent is the acceptance scenario: sustained concurrent
// batch classification through the shared queue under -race.
func TestDetectConcurrent(t *testing.T) {
	b, _ := fixture(t)
	s := testServer(t, nil, Config{QueueSize: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			patterns := b.Train[c*10 : c*10+10]
			for iter := 0; iter < 3; iter++ {
				var buf bytes.Buffer
				if err := clip.WriteSet(&buf, patterns); err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+"/v1/detect", "application/json", &buf)
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, data)
					return
				}
				var dr detectResponse
				if err := json.Unmarshal(data, &dr); err != nil {
					errs <- err
					return
				}
				if dr.Count != len(patterns) {
					errs <- fmt.Errorf("client %d: count %d", c, dr.Count)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDetectRejectsBadRequests(t *testing.T) {
	b, _ := fixture(t)
	s := testServer(t, nil, Config{MaxPatterns: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/detect", strings.NewReader("not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/detect", strings.NewReader(`{"version":1,"patterns":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty set: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, b.Train[:3]))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized set: status %d, want 413", resp.StatusCode)
	}
	// Wrong method.
	r, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/detect: status %d, want 405", r.StatusCode)
	}
}

// TestDetectBackpressure saturates a one-worker, one-slot queue and
// asserts the explicit 429 + Retry-After signal.
func TestDetectBackpressure(t *testing.T) {
	b, _ := fixture(t)
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	classify := func(p *clip.Pattern) clip.Label {
		started <- struct{}{}
		<-gate
		return clip.NonHotspot
	}
	s := testServer(t, perClip(classify), Config{Workers: 1, QueueSize: 1, BatchSize: 1, BatchWait: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		err    error
	}
	results := make(chan result, 2)
	post := func() {
		var buf bytes.Buffer
		if err := clip.WriteSet(&buf, b.Train[:1]); err != nil {
			results <- result{err: err}
			return
		}
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", &buf)
		if err != nil {
			results <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		results <- result{status: resp.StatusCode}
	}

	go post()
	<-started // the worker holds request A's clip

	go post() // request B occupies the single queue slot
	deadline := time.Now().Add(5 * time.Second)
	for len(s.pool.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request B never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Request C must be rejected immediately with 429 + Retry-After.
	resp, data := postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, b.Train[:1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Unblock the worker; A and B must now complete cleanly.
	close(gate)
	for i := 0; i < 2; i++ {
		res := <-results
		if res.err != nil {
			t.Fatalf("request %d: %v", i, res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, res.status)
		}
	}
}

// TestDetectDeadline asserts per-request deadlines: a gated classifier
// never answers, so the tightened ?timeout must fire with 504.
func TestDetectDeadline(t *testing.T) {
	b, _ := fixture(t)
	gate := make(chan struct{})
	classify := func(p *clip.Pattern) clip.Label {
		<-gate
		return clip.NonHotspot
	}
	s := testServer(t, perClip(classify), Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(gate)

	resp, data := postJSON(t, ts.URL+"/v1/detect?timeout=50ms", clipSetBody(t, b.Train[:2]))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "deadline") {
		t.Fatalf("error body %q does not name the deadline", data)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s := testServer(t, nil, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", ep, resp.StatusCode)
		}
	}

	s.Close() // draining: readiness must flip, liveness must not
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz after Close: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after Close: status %d, want 200", resp.StatusCode)
	}
}

// TestReloadUnderLoad swaps the model repeatedly while classification
// traffic flows — the hot-reload acceptance path under -race.
func TestReloadUnderLoad(t *testing.T) {
	b, det := fixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := testServer(t, nil, Config{ModelPath: path, QueueSize: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, data := postJSON(t, ts.URL+"/v1/reload", strings.NewReader("{}"))
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			var rr reloadResponse
			if err := json.Unmarshal(data, &rr); err != nil {
				errs <- err
				return
			}
			if rr.Kernels != det.NumKernels() {
				errs <- fmt.Errorf("reload %d: %d kernels, want %d", i, rr.Kernels, det.NumKernels())
				return
			}
		}
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, data := postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, b.Train[c*5:c*5+5]))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("detect client %d: status %d: %s", c, resp.StatusCode, data)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.reloads.Load() != 5 {
		t.Fatalf("reload count %d, want 5", s.reloads.Load())
	}
}

// TestReloadSelectionSummary reloads an artifact carrying a
// cross-validated selection header and checks the reload response
// surfaces the provenance digest.
func TestReloadSelectionSummary(t *testing.T) {
	_, det := fixture(t)
	dir := t.TempDir()

	// Clone the fixture detector through save/load so attaching the
	// selection header doesn't mutate the shared fixture.
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	clone.SetSelection(&core.Selection{
		Seed: 42, Folds: 3, Candidates: 9,
		Grid: core.SelectionGrid{Cs: []float64{10, 1000}, Gammas: []float64{0.01}},
		Groups: []core.GroupSelection{
			{Group: 0, Searched: true, Params: core.GroupParams{C: 10, Gamma: 0.01}, F1: 1},
			{Group: 1, Searched: false},
		},
	})
	path := filepath.Join(dir, "cv-model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := testServer(t, nil, Config{ModelPath: path})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/reload", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, data)
	}
	var rr reloadResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("decoding reload response: %v", err)
	}
	if rr.Selection == nil {
		t.Fatalf("reload response carries no selection summary: %s", data)
	}
	want := selectionSummary{Seed: 42, Folds: 3, Candidates: 9, Groups: 2, Searched: 1}
	if *rr.Selection != want {
		t.Fatalf("selection summary %+v, want %+v", *rr.Selection, want)
	}

	// A plain fixed-hyperparameter model reports no selection block.
	resp, data = postJSON(t, ts.URL+"/v1/reload",
		strings.NewReader(fmt.Sprintf(`{"path":%q}`, writeFixtureModel(t, dir, det))))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload plain: status %d: %s", resp.StatusCode, data)
	}
	rr = reloadResponse{}
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatalf("decoding reload response: %v", err)
	}
	if rr.Selection != nil {
		t.Fatalf("plain model reload reports selection %+v, want none", *rr.Selection)
	}
}

// writeFixtureModel saves a detector under dir and returns the path.
func writeFixtureModel(t testing.TB, dir string, det *core.Detector) string {
	t.Helper()
	path := filepath.Join(dir, "plain-model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := det.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReloadErrors(t *testing.T) {
	s := testServer(t, nil, Config{}) // no ModelPath
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/reload", strings.NewReader("{}"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload without any path: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/reload", strings.NewReader(`{"path":"/nonexistent/model.json"}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("reload with bad path: status %d, want 422", resp.StatusCode)
	}

	// A model that decodes but cannot be evaluated (one coefficient more
	// than support vectors) is refused; the old model keeps serving.
	b, det := fixture(t)
	var saved bytes.Buffer
	if err := det.Save(&saved); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(saved.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	svm := doc["kernels"].([]any)[0].(map[string]any)["svm"].(map[string]any)
	svm["coef"] = append(svm["coef"].([]any), 1.0)
	bad, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad-model.json")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/reload", strings.NewReader(fmt.Sprintf(`{"path":%q}`, path)))
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), core.ErrInvalidModel.Error()) {
		t.Fatalf("reload of an unevaluable model: status %d %s, want 422 naming %q", resp.StatusCode, data, core.ErrInvalidModel)
	}
	resp, data = postJSON(t, ts.URL+"/v1/detect", clipSetBody(t, b.Train[:3]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detect after a refused reload: status %d %s", resp.StatusCode, data)
	}
}

func scanBody(t testing.TB, b *iccad.Benchmark) *bytes.Buffer {
	t.Helper()
	layer := b.Layer
	req := scanRequest{Name: "scan_test", Layer: &layer}
	for _, r := range b.Test.Rects(layer) {
		req.Rects = append(req.Rects, [4]geom.Coord{r.X0, r.Y0, r.X1, r.Y1})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestScanEndpoint(t *testing.T) {
	b, det := fixture(t)
	// A full-pipeline scan can outlast the default 30s request deadline
	// when the race detector slows evaluation down; give it headroom.
	s := testServer(t, nil, Config{RequestTimeout: 10 * time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/scan", scanBody(t, b))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr scanResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding scan response: %v", err)
	}
	if sr.Rects != len(b.Test.Rects(b.Layer)) {
		t.Fatalf("scanned %d rects, posted %d", sr.Rects, len(b.Test.Rects(b.Layer)))
	}
	if sr.Tiles == nil || sr.Tiles.TilesDone == 0 {
		t.Fatalf("plain scan response without tile counters: %+v", sr.Tiles)
	}
	want := det.Detect(b.Test)
	if sr.Report.Candidates == 0 || sr.Report.Candidates != want.Candidates {
		t.Fatalf("candidates %d, want %d", sr.Report.Candidates, want.Candidates)
	}
	if len(sr.Report.Hotspots) != len(want.Hotspots) {
		t.Fatalf("hotspots %d, want %d", len(sr.Report.Hotspots), len(want.Hotspots))
	}
}

// TestScanEndpointTiled scans at an explicit tile side and requires the
// same detection outcome as Detect, tile counters in the response, and
// live tile counters in the metrics registry (the /debug/vars progress
// signal).
func TestScanEndpointTiled(t *testing.T) {
	b, det := fixture(t)
	s := testServer(t, nil, Config{RequestTimeout: 10 * time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	layer := b.Layer
	req := scanRequest{Name: "scan_test", Layer: &layer, Tile: 16000}
	for _, r := range b.Test.Rects(layer) {
		req.Rects = append(req.Rects, [4]geom.Coord{r.X0, r.Y0, r.X1, r.Y1})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts.URL+"/v1/scan", &buf)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr scanResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding scan response: %v", err)
	}
	if sr.Tiles == nil || sr.Tiles.TilesDone == 0 {
		t.Fatalf("tile counters missing: %+v", sr.Tiles)
	}
	want := det.Detect(b.Test)
	if sr.Report.Candidates != want.Candidates {
		t.Fatalf("candidates %d, want %d", sr.Report.Candidates, want.Candidates)
	}
	if len(sr.Report.Hotspots) != len(want.Hotspots) {
		t.Fatalf("hotspots %d, want %d", len(sr.Report.Hotspots), len(want.Hotspots))
	}
	for i := range sr.Report.Hotspots {
		if sr.Report.Hotspots[i] != want.Hotspots[i] {
			t.Fatalf("hotspot %d = %v, want %v", i, sr.Report.Hotspots[i], want.Hotspots[i])
		}
	}
	if s.reg.Counter("scan.tiles_done").Value() == 0 {
		t.Fatal("scan.tiles_done counter not incremented (expvar progress signal dead)")
	}
}

func boolPtr(b bool) *bool { return &b }

func TestScanDeadline(t *testing.T) {
	b, _ := fixture(t)
	s := testServer(t, nil, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts.URL+"/v1/scan?timeout=1ns", scanBody(t, b))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, data)
	}
}

// TestScanErrorStatus pins how a failed /v1/scan or window request is
// answered: a scan worker's panic (*workerpanic.Error, however wrapped) is
// the server's fault, 500, with workerpanic.Prefix and the panic value but
// not the stack in the body (the distributed coordinator reads the
// prefix); the request's deadline is 504; any other refusal of the layout
// or its options is 400.
func TestScanErrorStatus(t *testing.T) {
	panicked := &workerpanic.Error{Value: "boom", Stack: []byte("goroutine 7 [running]:")}
	for _, tc := range []struct {
		err  error
		want int
		body string // "" skips the body check
	}{
		{panicked, http.StatusInternalServerError, "worker panic: boom"},
		{fmt.Errorf("core: scanning: %w", panicked), http.StatusInternalServerError, "worker panic: boom"},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, ""},
		{fmt.Errorf("scan: tile side 10 below core side 1200"), http.StatusBadRequest, ""},
	} {
		rec := httptest.NewRecorder()
		writeScanError(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("writeScanError(%v) = %d, want %d", tc.err, rec.Code, tc.want)
		}
		var eb errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("writeScanError(%v): body %q: %v", tc.err, rec.Body, err)
		}
		if tc.body != "" && eb.Error != tc.body {
			t.Errorf("writeScanError(%v) body %q, want %q", tc.err, eb.Error, tc.body)
		}
	}
}

func TestScanBackpressure(t *testing.T) {
	b, _ := fixture(t)
	s := testServer(t, nil, Config{ScanConcurrency: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.scanSem <- struct{}{} // occupy the only scan slot
	defer func() { <-s.scanSem }()
	resp, _ := postJSON(t, ts.URL+"/v1/scan", scanBody(t, b))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// TestGracefulDrain runs the real Serve lifecycle: in-flight requests
// started before the stop signal must complete, then Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	b, _ := fixture(t)
	started := make(chan struct{}, 64)
	classify := func(p *clip.Pattern) clip.Label {
		started <- struct{}{}
		time.Sleep(30 * time.Millisecond)
		return clip.NonHotspot
	}
	s := testServer(t, perClip(classify), Config{Workers: 2, QueueSize: 64, DrainTimeout: 10 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	const reqs = 4
	type result struct {
		status int
		err    error
	}
	results := make(chan result, reqs)
	for i := 0; i < reqs; i++ {
		go func(i int) {
			var buf bytes.Buffer
			if err := clip.WriteSet(&buf, b.Train[i*2:i*2+2]); err != nil {
				results <- result{err: err}
				return
			}
			resp, err := http.Post(base+"/v1/detect", "application/json", &buf)
			if err != nil {
				results <- result{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			results <- result{status: resp.StatusCode}
		}(i)
	}

	// Wait until every request has work in the pool, then pull the plug.
	for i := 0; i < reqs; i++ {
		<-started
	}
	cancel()

	for i := 0; i < reqs; i++ {
		res := <-results
		if res.err != nil {
			t.Fatalf("in-flight request %d failed during drain: %v", i, res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("in-flight request %d: status %d, want 200", i, res.status)
		}
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil (clean drain)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// The drained server must refuse new connections.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("drained server still accepting connections")
	}
}

func TestDebugEndpoints(t *testing.T) {
	s := testServer(t, nil, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ep := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", ep, resp.StatusCode)
		}
		if ep == "/debug/vars" && !bytes.Contains(data, []byte("hotspotd")) {
			t.Fatalf("expvar output missing the hotspotd registry")
		}
	}
}

// TestScanEndpointWindow pins the /v1/scan window extension the
// distributed coordinator rides on: a windowed request evaluates only
// that window's tiles and returns the raw shard candidates (identical to
// a direct ScanShardContext call), and an empty window is rejected.
func TestScanEndpointWindow(t *testing.T) {
	b, det := fixture(t)
	s := testServer(t, nil, Config{RequestTimeout: 10 * time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const tile = 15000
	gb := b.Test.GeometryBounds()
	win := geom.R(b.Test.Bounds.X0, b.Test.Bounds.Y0, b.Test.Bounds.X1, b.Test.Bounds.Y0+2*tile)
	layer := b.Layer
	req := scanRequest{
		Name: "scan_test", Layer: &layer, Tile: tile,
		Window:   &[4]geom.Coord{win.X0, win.Y0, win.X1, win.Y1},
		SnapBase: &[2]geom.Coord{gb.X0, gb.Y0},
	}
	for _, r := range b.Test.Rects(layer) {
		req.Rects = append(req.Rects, [4]geom.Coord{r.X0, r.Y0, r.X1, r.Y1})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts.URL+"/v1/scan", &buf)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sr scanResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatalf("decoding window scan response: %v", err)
	}
	if sr.Tiles == nil || sr.Tiles.TilesDone == 0 {
		t.Fatalf("window scan metadata missing: tiles=%+v", sr.Tiles)
	}
	want, _, err := det.ScanShardContext(context.Background(), b.Test, win, geom.Pt(gb.X0, gb.Y0), core.ScanOptions{Tile: tile})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Candidates) != len(want) {
		t.Fatalf("window returned %d candidates, want %d", len(sr.Candidates), len(want))
	}
	for i := range want {
		if sr.Candidates[i] != want[i] {
			t.Fatalf("candidate %d = %+v, want %+v", i, sr.Candidates[i], want[i])
		}
	}

	// A degenerate window is a contract violation, not an empty result.
	req.Window = &[4]geom.Coord{10, 10, 10, 10}
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, data = postJSON(t, ts.URL+"/v1/scan", &buf)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty window: status %d (%s), want 400", resp.StatusCode, data)
	}
}

// TestScanEndpointStore pins the server-side incremental path: with
// Config.StorePath set, the first tiled /v1/scan fills the store, the
// second is served from it tile-for-tile with an identical report, and
// "incremental": false opts a request out entirely.
func TestScanEndpointStore(t *testing.T) {
	b, det := fixture(t)
	s := testServer(t, nil, Config{
		RequestTimeout: 10 * time.Minute,
		StorePath:      filepath.Join(t.TempDir(), "store.jsonl"),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tiledScan := func(incremental *bool) scanResponse {
		t.Helper()
		layer := b.Layer
		req := scanRequest{Name: "scan_test", Layer: &layer, Tile: 16000, Incremental: incremental}
		for _, r := range b.Test.Rects(layer) {
			req.Rects = append(req.Rects, [4]geom.Coord{r.X0, r.Y0, r.X1, r.Y1})
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(req); err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.URL+"/v1/scan", &buf)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var sr scanResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("decoding scan response: %v", err)
		}
		return sr
	}

	first := tiledScan(nil)
	if first.Store == nil || first.Store.Entries == 0 {
		t.Fatalf("first scan reported no store stats: %+v", first.Store)
	}
	if first.Tiles.TilesCached != 0 || first.Tiles.TilesDirty != first.Tiles.TilesTotal {
		t.Fatalf("first scan against an empty store: %+v", first.Tiles)
	}

	second := tiledScan(nil)
	if second.Tiles.TilesCached != second.Tiles.TilesTotal || second.Tiles.TilesDirty != 0 {
		t.Fatalf("second scan not fully cached: %+v", second.Tiles)
	}
	want := det.Detect(b.Test)
	if second.Report.Candidates != want.Candidates || len(second.Report.Hotspots) != len(want.Hotspots) {
		t.Fatalf("cached scan report drifted: %d candidates / %d hotspots, want %d / %d",
			second.Report.Candidates, len(second.Report.Hotspots), want.Candidates, len(want.Hotspots))
	}
	for i := range second.Report.Hotspots {
		if second.Report.Hotspots[i] != want.Hotspots[i] {
			t.Fatalf("hotspot %d = %v, want %v", i, second.Report.Hotspots[i], want.Hotspots[i])
		}
	}

	optedOut := tiledScan(boolPtr(false))
	if optedOut.Store != nil || optedOut.Tiles.TilesCached != 0 {
		t.Fatalf("opted-out scan still touched the store: store=%+v tiles=%+v", optedOut.Store, optedOut.Tiles)
	}
}

// TestOversizedBody413 posts a body one byte over MaxBodyBytes to each
// /v1 endpoint that reads one and expects 413. Each body is a JSON object
// padded with whitespace before its closing brace, so the cut always
// breaks the JSON; the same object padded to exactly the cap must get
// past the size check.
func TestOversizedBody413(t *testing.T) {
	b, _ := fixture(t)
	const limit = 16 << 10
	bodies := map[string][]byte{
		"/v1/detect": bytes.TrimSpace(clipSetBody(t, b.Train[:1]).Bytes()),
		"/v1/scan":   []byte(`{"rects":[[0,0,1200,200]]}`),
		"/v1/reload": []byte(`{"path":"/nonexistent/model.json"}`),
	}
	s := testServer(t, nil, Config{MaxBodyBytes: limit})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for path, obj := range bodies {
		if len(obj) > limit {
			t.Fatalf("%s: fixture body is %d bytes, over the %d-byte cap", path, len(obj), limit)
		}
		for _, size := range []int{limit + 1, limit} {
			body := append(append(obj[:len(obj)-1:len(obj)-1], bytes.Repeat([]byte(" "), size-len(obj))...), '}')
			resp, data := postJSON(t, ts.URL+path, bytes.NewReader(body))
			if got := resp.StatusCode == http.StatusRequestEntityTooLarge; got != (size > limit) {
				t.Errorf("%s with a %d-byte body under a %d-byte cap: status %d (%s)", path, size, limit, resp.StatusCode, data)
			}
		}
	}
}
