package core

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"hotspot/internal/geom"
	"hotspot/internal/scan"
	"hotspot/internal/simd"
)

// dispatchRun captures every detection surface's output under one simd
// dispatch: the monolithic detect, the tiled / GDS / incremental scans,
// the distributed shard merge, and the serialized model artifact.
type dispatchRun struct {
	detect  Report
	tiled   Report
	gds     Report
	incr    Report
	sharded Report
	model   []byte
}

// runAllSurfaces trains a detector from scratch under the current dispatch
// and runs every scan surface over the shared fixture. storePath points at
// the incremental tile store (shared across dispatches to prove stored
// tiles verify and replay exactly under a different dispatch).
func runAllSurfaces(t *testing.T, storePath string) (dispatchRun, *ScanStats) {
	t.Helper()
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	var r dispatchRun

	r.detect = d.Detect(b.Test)

	const tile = 16000
	opts := ScanOptions{Tile: tile, Workers: 8}
	var err error
	r.tiled, _, err = d.ScanTiledContext(context.Background(), b.Test, opts)
	if err != nil {
		t.Fatal(err)
	}

	lib := b.Test.ToGDS("TOP")
	r.gds, _, err = d.ScanGDSContext(context.Background(), lib, "TOP", opts)
	if err != nil {
		t.Fatal(err)
	}

	var st ScanStats
	r.incr, st, err = d.ScanIncremental(b.Test, storePath, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed shard path: two tile-row-aligned bands merged exactly as
	// the coordinator merges backend responses.
	gb := b.Test.GeometryBounds()
	snap := geom.Pt(gb.X0, gb.Y0)
	split := gb.Y0 + 2*tile
	if split >= gb.Y1 {
		split = gb.Y0 + tile
	}
	var merged []scan.Candidate
	for _, win := range []geom.Rect{
		{X0: gb.X0, Y0: gb.Y0, X1: gb.X1, Y1: split},
		{X0: gb.X0, Y0: split, X1: gb.X1, Y1: gb.Y1},
	} {
		cands, _, err := d.ScanShardContext(context.Background(), b.Test, win, snap, ScanOptions{Tile: tile})
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, cands...)
	}
	if err := d.ReportFromScan(&r.sharded, scan.MergeSeams(merged), b.Test, true); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r.model = buf.Bytes()
	return r, &st
}

// TestSIMDDispatchExactness is the tentpole's acceptance matrix: with the
// accelerated dispatch and with the portable reference, training and every
// scan surface — Detect, ScanTiled, ScanGDS, ScanIncremental, and the
// distributed shard pipeline — produce byte-identical reports and a
// byte-identical serialized model. The incremental store warmed under one
// dispatch is replayed under the other: every tile must verify and hit.
func TestSIMDDispatchExactness(t *testing.T) {
	if simd.Active() == "portable" {
		t.Skip("no accelerated simd dispatch on this host")
	}
	storePath := filepath.Join(t.TempDir(), "store.jsonl")

	accel, accelSt := runAllSurfaces(t, storePath)
	if accelSt.TilesCached != 0 {
		t.Fatalf("fresh store reported %d cached tiles", accelSt.TilesCached)
	}

	orig := simd.Active()
	if err := simd.Use("portable"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := simd.Use(orig); err != nil {
			t.Fatal(err)
		}
	}()
	port, portSt := runAllSurfaces(t, storePath)

	reportsEqual(t, "detect", port.detect, accel.detect)
	if g, w := port.detect.Telemetry.Counters["detect.kernel_evals"], accel.detect.Telemetry.Counters["detect.kernel_evals"]; g != w {
		t.Fatalf("detect kernel_evals %d under portable, %d accelerated", g, w)
	}
	reportsEqual(t, "tiled", port.tiled, accel.tiled)
	reportsEqual(t, "gds", port.gds, accel.gds)
	reportsEqual(t, "incremental", port.incr, accel.incr)
	reportsEqual(t, "sharded", port.sharded, accel.sharded)
	reportsEqual(t, "tiled-vs-detect", port.tiled, accel.detect)

	if !bytes.Equal(port.model, accel.model) {
		t.Fatalf("serialized models differ: %d bytes portable, %d accelerated", len(port.model), len(accel.model))
	}

	// The portable re-scan ran against the store warmed by the accelerated
	// run: identical tile digests and results mean a full cache hit.
	if portSt.TilesCached != portSt.TilesTotal || portSt.TilesDirty != 0 {
		t.Fatalf("cross-dispatch store replay: %d cached, %d dirty of %d",
			portSt.TilesCached, portSt.TilesDirty, portSt.TilesTotal)
	}

	// Sanity: the fixture actually flags work on both dispatches.
	if accel.detect.Flagged == 0 {
		t.Fatal("fixture flagged nothing; exactness matrix is vacuous")
	}
}

// TestEvalBatchZeroAllocPortable extends the zero-allocation gate to the
// portable dispatch: the pooled simd scratch paths must not regress when
// the accelerated kernels are disabled (HOTSPOT_NOSIMD=1 deployments).
func TestEvalBatchZeroAllocPortable(t *testing.T) {
	orig := simd.Active()
	if err := simd.Use("portable"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := simd.Use(orig); err != nil {
			t.Fatal(err)
		}
	}()

	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	s := getScratch()
	defer putScratch(s)
	ps, cfg := evalFixture(t, d, b.Test, s)

	d.evalBatchScratch(s, ps, cfg) // warm buffers and memo

	if allocs := testing.AllocsPerRun(50, func() {
		d.evalBatchScratch(s, ps, cfg)
	}); allocs != 0 {
		t.Fatalf("steady-state evalBatchScratch allocates %.1f objects/op under portable dispatch, want 0", allocs)
	}
}
