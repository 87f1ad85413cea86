package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/scan"
)

// withinDeadline runs f on its own goroutine and fails the test when f has
// not returned within d. A scan whose coordinates wrap never returns, so
// every hostile-layout call goes through here instead of running bare.
func withinDeadline(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still running after %v", d)
	}
}

// rectLayout builds a layout on layer 1 from the given rectangles.
func rectLayout(rects ...geom.Rect) *layout.Layout {
	l := layout.New("range")
	for _, r := range rects {
		l.AddRect(1, r)
	}
	return l
}

// TestScanEntryPointsRefuseOutOfRangeLayouts feeds DetectContext,
// ScanTiledContext and ScanShardContext layouts whose tiles, halos or clip
// windows would leave the int32 coordinate range, and a tiled layout whose
// grid exceeds the tile ceiling at the tile side asked for. Each must fail
// at once with its typed error; before the checks, the dissection and
// tiling loops wrapped and appended until the process ran out of memory.
func TestScanEntryPointsRefuseOutOfRangeLayouts(t *testing.T) {
	d, err := Load(bytes.NewReader(fuzzModel(t, 1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nearMax := rectLayout(geom.R(2147482000, 0, math.MaxInt32, 100))
	nearMin := rectLayout(geom.R(math.MinInt32, 0, math.MinInt32+100, 100))
	tooWide := rectLayout(geom.R(-2000000000, -2000000000, -1999999000, -1999999900),
		geom.R(2000000000, 2000000000, 2000001000, 2000000100))
	tooManyTiles := rectLayout(geom.R(0, 0, 1000, 100), geom.R(1000000000, 1000000000, 1000001000, 1000000100))

	for _, tc := range []struct {
		name string
		run  func() error
		want error
	}{
		{"detect near MaxInt32", func() error { _, err := d.DetectContext(ctx, nearMax); return err }, ErrCoordRange},
		{"detect near MinInt32", func() error { _, err := d.DetectContext(ctx, nearMin); return err }, ErrCoordRange},
		{"detect wider than int32", func() error { _, err := d.DetectContext(ctx, tooWide); return err }, ErrCoordRange},
		{"tiled near MaxInt32", func() error { _, _, err := d.ScanTiledContext(ctx, nearMax, ScanOptions{}); return err }, ErrCoordRange},
		{"tiled wider than int32", func() error { _, _, err := d.ScanTiledContext(ctx, tooWide, ScanOptions{}); return err }, ErrCoordRange},
		{"tiled tile side past the range", func() error {
			_, _, err := d.ScanTiledContext(ctx, rectLayout(geom.R(0, 0, 1000, 100)), ScanOptions{Tile: math.MaxInt32 - 1000})
			return err
		}, ErrCoordRange},
		{"tiled grid above the ceiling", func() error {
			_, _, err := d.ScanTiledContext(ctx, tooManyTiles, ScanOptions{Tile: scan.DefaultTileFactor * d.Config().Spec.ClipSide})
			return err
		}, scan.ErrTooManyTiles},
		{"shard window near MaxInt32", func() error {
			_, _, err := d.ScanShardContext(ctx, nearMax, geom.R(2147482000, 0, math.MaxInt32, 100), geom.Pt(2147482000, 0), ScanOptions{})
			return err
		}, ErrCoordRange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			withinDeadline(t, 10*time.Second, func() { err = tc.run() })
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// hotspotPattern is a small layout on which the hand-built test model
// reports hotspots.
func hotspotPattern() *layout.Layout {
	return rectLayout(
		geom.R(0, 0, 3000, 200), geom.R(0, 600, 3000, 800),
		geom.R(1400, 0, 1600, 3000), geom.R(2400, 1200, 4000, 1400),
	)
}

// TestDetectSparseLayoutAboveTileCeiling detects layouts whose bounds make
// more tiles than the grid ceiling at the default factor's tile side: two
// small rectangles, and the hotspot pattern, at opposite corners of a
// 10^9-dbu square. The default tile side rises to the smallest side that
// fits instead of failing the scan, so Detect reports what the monolithic
// reference does, with no error.
func TestDetectSparseLayoutAboveTileCeiling(t *testing.T) {
	d, err := Load(bytes.NewReader(fuzzModel(t, 1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	spec := d.Config().Spec
	const far = 1_000_000_000
	corners := layout.New("corners")
	for _, off := range []geom.Coord{0, far} {
		for _, r := range hotspotPattern().Rects(1) {
			corners.AddRect(1, r.Translate(off, off))
		}
	}
	for _, tc := range []struct {
		name string
		l    *layout.Layout
	}{
		{"rects", rectLayout(geom.R(0, 0, 1000, 100), geom.R(far, far, far+1000, far+100))},
		{"hotspot pattern", corners},
	} {
		if side := scan.DefaultTile(spec, tc.l.Bounds); side <= scan.DefaultTileFactor*spec.ClipSide {
			t.Fatalf("%s: default tile side %d was not raised; the layout does not test the ceiling", tc.name, side)
		}
		var rep Report
		withinDeadline(t, 60*time.Second, func() { rep, err = d.DetectContext(context.Background(), tc.l) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		reportsEqual(t, tc.name, rep, d.detectReference(tc.l))
	}
	if rep := d.detectReference(corners); len(rep.Hotspots) == 0 {
		t.Fatal("the hand-built model reports no hotspot on the corner patterns; the test shows nothing")
	}
}

// TestDetectAtCoordRangeEdge moves a small layout as close to the int32
// limit as checkCoordRange allows. The margin must be enough: Detect and
// the tiled scan finish and report the same hotspots, moved, as at the
// origin.
func TestDetectAtCoordRangeEdge(t *testing.T) {
	d, err := Load(bytes.NewReader(fuzzModel(t, 1, nil)))
	if err != nil {
		t.Fatal(err)
	}
	base := hotspotPattern()
	spec := d.Config().Spec
	margin := scan.DefaultTileFactor*spec.ClipSide + spec.CoreSide + spec.Ambit() + spec.ClipSide
	gb := base.GeometryBounds()
	dx, dy := math.MaxInt32-margin-gb.X1, math.MaxInt32-margin-gb.Y1
	moved := translateLayout(base, dx, dy)

	var want, got, tiled Report
	var errs [3]error
	withinDeadline(t, 30*time.Second, func() {
		want, errs[0] = d.DetectContext(context.Background(), base)
		got, errs[1] = d.DetectContext(context.Background(), moved)
		tiled, _, errs[2] = d.ScanTiledContext(context.Background(), moved, ScanOptions{})
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
	}
	if len(want.Hotspots) == 0 {
		t.Fatal("the hand-built model reports no hotspot at the origin; the test shows nothing")
	}
	for _, rep := range []Report{got, tiled} {
		if rep.Candidates != want.Candidates || len(rep.Hotspots) != len(want.Hotspots) {
			t.Fatalf("at the edge: %d candidates, %d hotspots; at the origin %d, %d",
				rep.Candidates, len(rep.Hotspots), want.Candidates, len(want.Hotspots))
		}
		for i, h := range rep.Hotspots {
			if back := h.Translate(-dx, -dy); back != want.Hotspots[i] {
				t.Fatalf("hotspot %d at the edge moves back to %v, want %v", i, back, want.Hotspots[i])
			}
		}
	}
	if _, err := d.DetectContext(context.Background(), translateLayout(base, dx+1, dy)); !errors.Is(err, ErrCoordRange) {
		t.Fatalf("one dbu past the edge: err = %v, want ErrCoordRange", err)
	}
}
