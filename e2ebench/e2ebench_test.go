package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/iccad"
)

var (
	smallOnce sync.Once
	smallB    *iccad.Benchmark
	smallDet  *core.Detector
	smallErr  error
)

// small returns a small generated benchmark and a model trained on it.
func small(t *testing.T) (*iccad.Benchmark, *core.Detector) {
	t.Helper()
	smallOnce.Do(func() {
		smallB = iccad.Generate(iccad.Config{
			Name: "e2ebench_test", Process: "32nm",
			W: 60000, H: 60000,
			TestHS: 16, TrainHS: 30, TrainNHS: 120,
			FillFactor: 0.5, Seed: 11,
		})
		smallDet, smallErr = core.Train(smallB.Train, core.DefaultConfig())
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallB, smallDet
}

func TestPlanEditsDeterministic(t *testing.T) {
	b, _ := small(t)
	rects := b.Test.Rects(iccad.DefaultLayer)
	a := planEdits(rects, 7, 12)
	if !reflect.DeepEqual(a, planEdits(rects, 7, 12)) {
		t.Fatal("same seed planned different edits")
	}
	if reflect.DeepEqual(a, planEdits(rects, 8, 12)) {
		t.Fatal("another seed planned the same edits")
	}
	gb := geom.BoundingBox(rects)
	inner := geom.R(gb.X0+editMargin, gb.Y0+editMargin, gb.X1-editMargin, gb.Y1-editMargin)
	moves := 0
	for i, e := range a {
		if !inner.ContainsRect(e.To) || max(e.To.W(), e.To.H()) > shortSide {
			t.Errorf("edit %d: %v is not a short wire inside %v", i, e.To, inner)
		}
		if e.Index >= 0 {
			moves++
			if e.From == e.To {
				t.Errorf("edit %d moves nothing", i)
			}
		}
	}
	if moves == 0 || moves == len(a) {
		t.Errorf("%d of %d edits are moves, want a mix", moves, len(a))
	}
	last := editedLayouts(b.Test, iccad.DefaultLayer, a)[len(a)-1]
	if got, want := last.GeometryBounds(), b.Test.GeometryBounds(); got != want {
		t.Errorf("edits moved the geometry bounds from %v to %v", want, got)
	}
}

// TestEditsDirtyTiles re-scans after every edit against a warm store, as a
// rescan-eco op does: each edit dirties at least one tile, and the last
// re-scan equals a cold scan of the edited layout.
func TestEditsDirtyTiles(t *testing.T) {
	b, det := small(t)
	ctx := context.Background()
	store := filepath.Join(t.TempDir(), storeFile)
	opts := core.ScanOptions{Tile: ecoTile}
	if _, _, err := det.ScanIncrementalContext(ctx, b.Test, store, opts); err != nil {
		t.Fatal(err)
	}
	edited := editedLayouts(b.Test, iccad.DefaultLayer, planEdits(b.Test.Rects(iccad.DefaultLayer), 3, ecoEdits))
	var rep core.Report
	for i, l := range edited {
		var st core.ScanStats
		var err error
		if rep, st, err = det.ScanIncrementalContext(ctx, l, store, opts); err != nil {
			t.Fatal(err)
		}
		if st.TilesDirty == 0 || st.TilesDirty == st.TilesTotal {
			t.Errorf("edit %d dirtied %d of %d tiles", i, st.TilesDirty, st.TilesTotal)
		}
	}
	cold, _, err := det.ScanTiledContext(ctx, edited[len(edited)-1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalize(rep).bytes(), normalize(cold).bytes()) {
		t.Error("last incremental re-scan differs from a cold scan")
	}
}

func TestReplayMatchesDetect(t *testing.T) {
	b, det := small(t)
	want := normalize(det.Detect(b.Test))
	sp := newSpans()
	got := replayDetect(det, b.Test, sp)
	if got.Candidates != want.Candidates || !reflect.DeepEqual(got.Hotspots, want.Hotspots) {
		t.Fatalf("replay: %d candidates, %d hotspots; Detect: %d, %d",
			got.Candidates, len(got.Hotspots), want.Candidates, len(want.Hotspots))
	}
	if len(want.Hotspots) == 0 {
		t.Fatal("the test layout has no hotspots to compare")
	}
	for _, name := range []string{"clip.extract_s", "clip.build_s", "core.classify_s", "core.removal_s"} {
		if _, ok := sp.secs[name]; !ok {
			t.Errorf("no %s span", name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that every metric the harness
// prints is declared in BENCHMARK.json with the same unit and direction,
// and that the workloads match.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, ours)
	}
	same := func(kind string, json []decl, traced bool) {
		printed := map[string]bool{}
		for _, m := range metricsFor(traced) {
			printed[m.name] = true
		}
		if len(json) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(json), len(printed))
		}
		for i, d := range json {
			if i >= len(metricsFor(traced)) {
				break
			}
			m := metricsFor(traced)[i]
			if d != (decl{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %s %s %s", kind, i, d, m.name, m.unit, m.better)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, false)
	same("per_layer", bj.PerLayer, true)
}

func TestCPUByLabel(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin := func(d time.Duration) {
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	pprof.Do(context.Background(), pprof.Labels("stage", "busy"), func(context.Context) { spin(300 * time.Millisecond) })
	spin(100 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := cpuByLabel(prof.Bytes(), "stage")
	if err != nil {
		t.Fatal(err)
	}
	if got["busy"] < 0.1 || got["busy"] > 0.5 {
		t.Errorf("labelled CPU %.3fs, want about 0.3s (all: %v)", got["busy"], got)
	}
	if got[""] > got["busy"] {
		t.Errorf("unlabelled CPU %.3fs exceeds the labelled %.3fs", got[""], got["busy"])
	}
}
