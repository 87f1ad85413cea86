package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/iccad"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
	"hotspot/internal/server"
)

// fixTile spans the 60000-dbu fixture with 4 tile rows, so shard counts
// up to 4 exercise genuine multi-band partitions.
const fixTile = 15000

// The package fixture: one benchmark, one trained detector, and the local
// tiled-scan reference report every distributed run must reproduce
// byte-for-byte (training and the reference scan dominate the suite's
// runtime, so both are shared).
var (
	fixOnce  sync.Once
	fixBench *iccad.Benchmark
	fixDet   *core.Detector
	fixWant  core.Report
	fixErr   error
)

func fixture(t testing.TB) (*iccad.Benchmark, *core.Detector, core.Report) {
	t.Helper()
	fixOnce.Do(func() {
		fixBench = iccad.Generate(iccad.Config{
			Name: "dist_test", Process: "32nm",
			W: 60000, H: 60000,
			TestHS: 16, TrainHS: 30, TrainNHS: 120,
			FillFactor: 0.5, Seed: 11, Workers: 8,
		})
		fixDet, fixErr = core.Train(fixBench.Train, core.DefaultConfig())
		if fixErr != nil {
			return
		}
		fixWant, _, fixErr = fixDet.ScanTiledContext(context.Background(), fixBench.Test, core.ScanOptions{Tile: fixTile})
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixBench, fixDet, fixWant
}

// reportsEqual asserts the deterministic detection outcome of two reports
// matches (Runtime and Telemetry legitimately differ between runs).
func reportsEqual(t *testing.T, label string, got, want core.Report) {
	t.Helper()
	if got.Candidates != want.Candidates {
		t.Fatalf("%s: candidates %d, want %d", label, got.Candidates, want.Candidates)
	}
	if got.Flagged != want.Flagged {
		t.Fatalf("%s: flagged %d, want %d", label, got.Flagged, want.Flagged)
	}
	if got.Reclaimed != want.Reclaimed {
		t.Fatalf("%s: reclaimed %d, want %d", label, got.Reclaimed, want.Reclaimed)
	}
	if len(got.Hotspots) != len(want.Hotspots) {
		t.Fatalf("%s: %d hotspots, want %d", label, len(got.Hotspots), len(want.Hotspots))
	}
	for i := range got.Hotspots {
		if got.Hotspots[i] != want.Hotspots[i] {
			t.Fatalf("%s: hotspot %d = %v, want %v", label, i, got.Hotspots[i], want.Hotspots[i])
		}
	}
}

// newBackendHandler builds a real hotspotd handler over the fixture
// detector.
func newBackendHandler(t testing.TB, det *core.Detector) http.Handler {
	t.Helper()
	s, err := server.NewWithDetector(det, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s.Handler()
}

// newBackendServer launches a real hotspotd over det.
func newBackendServer(t testing.TB, det *core.Detector) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newBackendHandler(t, det))
	t.Cleanup(ts.Close)
	return ts
}

// instantSleep replaces the coordinator's backoff/probe pauses with a
// recording no-op, keeping the failure-path tests deterministic and free
// of wall-clock sleeps.
type instantSleep struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (is *instantSleep) sleep(ctx context.Context, d time.Duration) error {
	is.mu.Lock()
	is.delays = append(is.delays, d)
	is.mu.Unlock()
	return ctx.Err()
}

func (is *instantSleep) recorded() []time.Duration {
	is.mu.Lock()
	defer is.mu.Unlock()
	return append([]time.Duration(nil), is.delays...)
}

// TestScanDistributedMatchesLocal is the acceptance guarantee: the
// distributed scan report is byte-identical to a local core.ScanTiled run
// for 1, 2, and 4 backends — and stays so when one backend is killed
// mid-scan (its shard re-dispatches to a survivor).
func TestScanDistributedMatchesLocal(t *testing.T) {
	b, det, want := fixture(t)

	for _, n := range []int{1, 2, 4} {
		backends := make([]string, n)
		for i := range backends {
			backends[i] = newBackendServer(t, det).URL
		}
		rep, st, err := Scan(context.Background(), det, b.Test, Options{
			Backends: backends, Shards: 4, Tile: fixTile,
		})
		if err != nil {
			t.Fatalf("backends=%d: %v", n, err)
		}
		reportsEqual(t, "backends="+backends[0], rep, want)
		if st.ShardsDone != st.Shards {
			t.Fatalf("backends=%d: %d/%d shards done", n, st.ShardsDone, st.Shards)
		}
		if st.ShardsRemote+st.ShardsEmpty != st.Shards {
			t.Fatalf("backends=%d: %d remote + %d empty of %d shards (local fallback unexpected)",
				n, st.ShardsRemote, st.ShardsEmpty, st.Shards)
		}
		for _, bs := range st.Backends {
			if bs.Down {
				t.Fatalf("backends=%d: %s ended down", n, bs.Addr)
			}
		}
	}

	t.Run("KillOneBackendMidScan", func(t *testing.T) {
		realA := newBackendHandler(t, det)
		realB := newBackendHandler(t, det)

		// Backend B dies mid-stream while serving its first shard (partial
		// JSON, then a dropped connection) and refuses everything after,
		// health probes included. Backend A holds its first shard until B
		// is dead, so B is guaranteed to have pulled work before the
		// failover happens — then A absorbs the re-dispatched shards.
		bDead := make(chan struct{})
		var bKill sync.Once
		srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-bDead:
				panic(http.ErrAbortHandler)
			default:
			}
			if r.URL.Path == "/v1/scan" {
				bKill.Do(func() { close(bDead) })
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				w.Write([]byte(`{"candidates":[`)) //nolint:errcheck
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				panic(http.ErrAbortHandler)
			}
			realB.ServeHTTP(w, r)
		}))
		t.Cleanup(srvB.Close)

		var aGate sync.Once
		srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/scan" {
				aGate.Do(func() { <-bDead })
			}
			realA.ServeHTTP(w, r)
		}))
		t.Cleanup(srvA.Close)

		is := &instantSleep{}
		reg := obs.NewRegistry()
		rep, st, err := Scan(context.Background(), det, b.Test, Options{
			Backends: []string{srvA.URL, srvB.URL}, Shards: 4, Tile: fixTile,
			Obs:   reg,
			sleep: is.sleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		reportsEqual(t, "kill-mid-scan", rep, want)
		if st.Redispatches == 0 {
			t.Fatal("backend B died mid-scan but no shard was re-dispatched")
		}
		if st.ShardsRemote+st.ShardsEmpty != st.Shards {
			t.Fatalf("%d remote + %d empty of %d shards (want full remote completion on survivor)",
				st.ShardsRemote, st.ShardsEmpty, st.Shards)
		}
		var downs int
		for _, bs := range st.Backends {
			if bs.Down {
				downs++
			}
		}
		if downs != 1 {
			t.Fatalf("%d backends down at end, want exactly 1 (B)", downs)
		}
		if got := reg.CounterValues()["dist.backend_down"]; got == 0 {
			t.Fatal("dist.backend_down counter not incremented")
		}
	})
}

// TestRetryBackoff pins the transient-failure path: a 429 with Retry-After
// then a 500 must retry in place — honoring the server's floor, then the
// jittered exponential schedule — and still produce the exact report.
func TestRetryBackoff(t *testing.T) {
	b, det, want := fixture(t)
	real := newBackendHandler(t, det)

	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/scan" {
			real.ServeHTTP(w, r)
			return
		}
		switch hits.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "2")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		case 2:
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
		default:
			real.ServeHTTP(w, r)
		}
	}))
	t.Cleanup(srv.Close)

	is := &instantSleep{}
	rep, st, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{srv.URL}, Shards: 1, Tile: fixTile,
		BackoffBase: 100 * time.Millisecond,
		sleep:       is.sleep,
		jitter:      func() float64 { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "retry-backoff", rep, want)
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
	delays := is.recorded()
	if len(delays) != 2 {
		t.Fatalf("recorded %d backoff sleeps %v, want 2", len(delays), delays)
	}
	// Attempt 0 backs off 100ms -> 50ms with zero jitter, floored at the
	// server's Retry-After of 2s; attempt 1 backs off 200ms -> 100ms.
	if delays[0] != 2*time.Second {
		t.Fatalf("first backoff %v, want the 2s Retry-After floor", delays[0])
	}
	if delays[1] != 100*time.Millisecond {
		t.Fatalf("second backoff %v, want 100ms", delays[1])
	}
	if st.Backends[0].Failures != 2 {
		t.Fatalf("backend failures = %d, want 2", st.Backends[0].Failures)
	}
}

// TestTimeoutFailsOverToLocal pins the per-shard deadline and the
// graceful-degradation tail: a backend that never answers exhausts its
// retry budget, fails its health probes, and the coordinator finishes the
// scan locally with an identical report.
func TestTimeoutFailsOverToLocal(t *testing.T) {
	b, det, want := fixture(t)

	unblock := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/scan" {
			// Hang until the coordinator gives up. The unblock channel
			// (not r.Context()) releases the handler at test end: with an
			// unread request body the server cannot detect the client's
			// disconnect, so the context alone would wedge srv.Close.
			select {
			case <-r.Context().Done():
			case <-unblock:
			}
			return
		}
		http.Error(w, `{"error":"not ready"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(unblock) }) // LIFO: releases handlers before srv.Close waits

	is := &instantSleep{}
	reg := obs.NewRegistry()
	rep, st, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{srv.URL}, Shards: 2, Tile: fixTile,
		ShardTimeout: 50 * time.Millisecond,
		Retries:      -1, // no in-place retries: first timeout retires the backend
		Obs:          reg,
		sleep:        is.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "timeout-failover", rep, want)
	if st.ShardsLocal+st.ShardsEmpty != st.Shards {
		t.Fatalf("%d local + %d empty of %d shards, want everything local", st.ShardsLocal, st.ShardsEmpty, st.Shards)
	}
	if !st.Backends[0].Down {
		t.Fatal("timed-out backend should end the scan down")
	}
	if got := reg.CounterValues()["dist.shards_local"]; got != int64(st.ShardsLocal) {
		t.Fatalf("dist.shards_local = %d, want %d", got, st.ShardsLocal)
	}
}

// TestMidStreamDropFailsOver pins the torn-response path: a backend that
// dies while streaming its response body is retired immediately (no retry
// budget burned) and the scan completes locally, identically.
func TestMidStreamDropFailsOver(t *testing.T) {
	b, det, want := fixture(t)

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/scan" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte(`{"rects":12,"candidates":[{"at"`)) //nolint:errcheck
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(srv.Close)

	is := &instantSleep{}
	rep, st, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{srv.URL}, Shards: 1, Tile: fixTile,
		sleep: is.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "mid-stream-drop", rep, want)
	if st.Retries != 0 {
		t.Fatalf("connection-class failure burned %d in-place retries, want 0", st.Retries)
	}
	if st.ShardsLocal != 1 {
		t.Fatalf("shards local = %d, want 1", st.ShardsLocal)
	}
	if !st.Backends[0].Down {
		t.Fatal("dropped backend should end the scan down")
	}
}

// TestAllBackendsDownNoFallback: with local fallback disabled, an
// unreachable fleet fails the scan with ErrAllBackendsDown.
func TestAllBackendsDownNoFallback(t *testing.T) {
	b, det, _ := fixture(t)

	is := &instantSleep{}
	_, st, err := Scan(context.Background(), det, b.Test, Options{
		// Port 1 refuses connections immediately on any sane CI host.
		Backends: []string{"127.0.0.1:1"}, Shards: 2, Tile: fixTile,
		NoLocalFallback: true,
		sleep:           is.sleep,
	})
	if !errors.Is(err, ErrAllBackendsDown) {
		t.Fatalf("err = %v, want ErrAllBackendsDown", err)
	}
	if st.ShardsRemote != 0 || st.ShardsLocal != 0 {
		t.Fatalf("%d remote / %d local shards completed against a dead fleet", st.ShardsRemote, st.ShardsLocal)
	}
}

// TestDeadFleetFallsBackToLocal: the same dead fleet with fallback enabled
// completes the scan locally with the exact report.
func TestDeadFleetFallsBackToLocal(t *testing.T) {
	b, det, want := fixture(t)

	is := &instantSleep{}
	rep, st, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{"127.0.0.1:1", "127.0.0.1:1"}, Shards: 2, Tile: fixTile,
		sleep: is.sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "dead-fleet-local", rep, want)
	if st.ShardsLocal+st.ShardsEmpty != st.Shards {
		t.Fatalf("%d local + %d empty of %d shards, want everything local", st.ShardsLocal, st.ShardsEmpty, st.Shards)
	}
}

// TestResumeAfterCrash: a coordinator that dies mid-scan (here: its only
// backend dies after two shards, fallback disabled) leaves the completed
// shards in its store; the rerun against the reopened store serves them
// from it and only ships the remainder.
func TestResumeAfterCrash(t *testing.T) {
	b, det, want := fixture(t)
	path := filepath.Join(t.TempDir(), "dist.store")

	real := newBackendHandler(t, det)
	var served atomic.Int32
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/scan" && served.Add(1) > 2 {
			panic(http.ErrAbortHandler)
		}
		if r.URL.Path != "/v1/scan" && served.Load() > 2 {
			panic(http.ErrAbortHandler) // probes find the corpse too
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	store, err := det.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	is := &instantSleep{}
	_, st, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{dying.URL}, Shards: 4, Tile: fixTile,
		Store: store, NoLocalFallback: true,
		sleep: is.sleep,
	})
	store.Close()
	if !errors.Is(err, ErrAllBackendsDown) {
		t.Fatalf("err = %v, want ErrAllBackendsDown", err)
	}
	if st.ShardsRemote != 2 {
		t.Fatalf("crashed run completed %d shards remotely, want 2", st.ShardsRemote)
	}

	if store, err = det.OpenStore(path); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	healthy := newBackendServer(t, det)
	rep, st2, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{healthy.URL}, Shards: 4, Tile: fixTile,
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "resume-after-crash", rep, want)
	if st2.ShardsCached != st.ShardsRemote {
		t.Fatalf("re-run served %d shards from the store, want the %d the crashed run completed", st2.ShardsCached, st.ShardsRemote)
	}
	if st2.ShardsCached+st2.ShardsRemote+st2.ShardsEmpty != st2.Shards {
		t.Fatalf("re-run did not cover all shards: %+v", st2)
	}
}

// TestLyingBackendRejected pins the window contract: a backend that
// answers with candidates anchored outside the shard it was sent fails
// the scan with an error naming it, and the poisoned set is neither merged
// nor stored — a re-run against the same store with a healthy backend
// reproduces the local scan exactly.
func TestLyingBackendRejected(t *testing.T) {
	b, det, want := fixture(t)
	real := newBackendHandler(t, det)
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/scan" {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		var body map[string]json.RawMessage
		var cands []scan.Candidate
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Errorf("decoding backend response: %v", err)
			return
		}
		if err := json.Unmarshal(body["candidates"], &cands); err != nil {
			t.Errorf("decoding candidates: %v", err)
			return
		}
		for i := range cands {
			cands[i].At.X += 1_000_000
			cands[i].Flagged = true
		}
		shifted, err := json.Marshal(cands)
		if err != nil {
			t.Errorf("encoding shifted candidates: %v", err)
			return
		}
		body["candidates"] = shifted
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body) //nolint:errcheck
	}))
	t.Cleanup(lying.Close)

	store, err := det.OpenStore(filepath.Join(t.TempDir(), "dist.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	is := &instantSleep{}
	_, st, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{lying.URL}, Shards: 4, Tile: fixTile,
		Store: store, sleep: is.sleep,
	})
	if err == nil {
		t.Fatal("scan accepted candidates outside their shard window")
	}
	if msg := err.Error(); !strings.Contains(msg, lying.URL) || !strings.Contains(msg, "outside shard") {
		t.Fatalf("error %q does not name the backend and the shard", msg)
	}
	if st.ShardsRemote != 0 || store.Stats().Entries != 0 {
		t.Fatalf("poisoned shards accepted: %d remote, %d stored", st.ShardsRemote, store.Stats().Entries)
	}

	healthy := newBackendServer(t, det)
	rep, st2, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{healthy.URL}, Shards: 4, Tile: fixTile,
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "after-lying-backend", rep, want)
	if st2.ShardsCached != 0 {
		t.Fatalf("re-run served %d shards from a store the lying backend should not have written", st2.ShardsCached)
	}
}

// TestWorkerPanicFailsScan: a shard whose evaluation panics answers 500
// with a scan.PanicPrefix message on every backend while each stays ready,
// so the scan fails at once with the panic instead of retrying, retiring,
// reviving and re-dispatching the shard forever.
func TestWorkerPanicFailsScan(t *testing.T) {
	b, det, _ := fixture(t)
	real := newBackendHandler(t, det)
	var posts atomic.Int32
	panicking := func() *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/scan" {
				real.ServeHTTP(w, r)
				return
			}
			posts.Add(1)
			http.Error(w, `{"error":"`+scan.PanicPrefix+`boom"}`, http.StatusInternalServerError)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	a, c := panicking(), panicking()

	done := make(chan error, 1)
	var st Stats
	go func() {
		var err error
		_, st, err = Scan(context.Background(), det, b.Test, Options{
			Backends: []string{a.URL, c.URL}, Shards: 4, Tile: fixTile,
			sleep: (&instantSleep{}).sleep,
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), scan.PanicPrefix+"boom") {
			t.Fatalf("err = %v, want the backend's worker panic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Scan did not return after every backend answered a worker panic")
	}
	if st.Retries != 0 || st.Redispatches != 0 || posts.Load() > 2 {
		t.Fatalf("%d shard posts, %d retries, %d redispatches; want one post per backend at most and no retry", posts.Load(), st.Retries, st.Redispatches)
	}
}

// TestShardBands pins the partitioner: contiguous tile-row-aligned bands
// covering the bounds exactly, balanced to within one row.
func TestShardBands(t *testing.T) {
	cases := []struct {
		bounds geom.Rect
		tile   geom.Coord
		n      int
		want   int // expected band count
	}{
		{geom.R(0, 0, 100, 7000), 1000, 3, 3},
		{geom.R(0, 0, 100, 7000), 1000, 10, 7}, // clamped to the row count
		{geom.R(-50, 30, 500, 2530), 1000, 2, 2},
		{geom.R(0, 0, 100, 500), 1000, 4, 1}, // single partial row
		{geom.R(0, 0, 100, 7000), 1000, 1, 1},
	}
	for _, tc := range cases {
		bands := shardBands(tc.bounds, tc.tile, tc.n)
		if len(bands) != tc.want {
			t.Fatalf("shardBands(%v, %d, %d): %d bands, want %d", tc.bounds, tc.tile, tc.n, len(bands), tc.want)
		}
		y := tc.bounds.Y0
		for i, bd := range bands {
			if bd.Empty() {
				t.Fatalf("band %d empty: %v", i, bd)
			}
			if bd.X0 != tc.bounds.X0 || bd.X1 != tc.bounds.X1 {
				t.Fatalf("band %d %v does not span the bounds width %v", i, bd, tc.bounds)
			}
			if bd.Y0 != y {
				t.Fatalf("band %d starts at %d, want contiguous %d", i, bd.Y0, y)
			}
			if bd.Y1 != tc.bounds.Y1 && (bd.Y1-tc.bounds.Y0)%tc.tile != 0 {
				t.Fatalf("band %d boundary %d not tile-row aligned", i, bd.Y1)
			}
			y = bd.Y1
		}
		if y != tc.bounds.Y1 {
			t.Fatalf("bands end at %d, want %d", y, tc.bounds.Y1)
		}
	}
	if bands := shardBands(geom.Rect{}, 1000, 3); bands != nil {
		t.Fatalf("empty bounds produced bands %v", bands)
	}
}

// TestShardStoreCache pins the coordinator-side incremental cache: a
// second scan against the store the first one filled completes every
// non-empty shard from cache — zero backend traffic — with the exact
// report, and an edit-free store survives coordinator restarts (each Scan
// call here is a fresh coordinator).
func TestShardStoreCache(t *testing.T) {
	b, det, want := fixture(t)
	store, err := det.OpenStore(filepath.Join(t.TempDir(), "dist.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	srv := newBackendServer(t, det)
	rep, st, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{srv.URL}, Shards: 4, Tile: fixTile,
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "store-fill run", rep, want)
	if st.ShardsCached != 0 {
		t.Fatalf("first run served %d shards from an empty store", st.ShardsCached)
	}
	if st.Store == nil || st.Store.Entries != st.ShardsRemote {
		t.Fatalf("store stats after fill: %+v (want %d entries)", st.Store, st.ShardsRemote)
	}

	// Second coordinator run: a counting backend proves no shard is shipped.
	var scans atomic.Int32
	real := newBackendHandler(t, det)
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/scan" {
			scans.Add(1)
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(counting.Close)

	reg := obs.NewRegistry()
	rep2, st2, err := Scan(context.Background(), det, b.Test, Options{
		Backends: []string{counting.URL}, Shards: 4, Tile: fixTile,
		Store: store, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "cached run", rep2, want)
	if st2.ShardsCached+st2.ShardsEmpty != st2.Shards {
		t.Fatalf("%d cached + %d empty of %d shards, want everything cached", st2.ShardsCached, st2.ShardsEmpty, st2.Shards)
	}
	if n := scans.Load(); n != 0 {
		t.Fatalf("cached run shipped %d shards to the backend, want 0", n)
	}
	if got := reg.CounterValues()["dist.shards_cached"]; got != int64(st2.ShardsCached) {
		t.Fatalf("dist.shards_cached = %d, want %d", got, st2.ShardsCached)
	}
}
