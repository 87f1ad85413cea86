package core

import (
	"context"
	"errors"
	"testing"

	"hotspot/internal/clip"
	"hotspot/internal/workerpanic"
)

// TestClassifyBatchMatchesScalar pins the batched evaluation path to the
// per-clip one: over the whole training set (hotspots, nonhotspots, and
// their shifted derivatives), ClassifyBatch must produce exactly the
// labels a ClassifyPattern loop does. Because DecisionBatch is bit-for-bit
// equal to scalar Decision, any divergence here is a routing/feedback
// bookkeeping bug, not numerics.
func TestClassifyBatchMatchesScalar(t *testing.T) {
	b := testBenchmark()
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"routed": func() Config {
			c := DefaultConfig()
			c.RouteK = 2
			return c
		}(),
		"basic": func() Config {
			c := DefaultConfig()
			c.EnableTopo = false
			c.EnableFeedback = false
			return c
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			d := trainedDetector(t, cfg)
			ps := make([]*clip.Pattern, 0, 2*len(b.Train))
			for _, p := range b.Train {
				ps = append(ps, p, p.Shifted(40, -25, nil))
			}
			got := d.ClassifyBatch(ps)
			if len(got) != len(ps) {
				t.Fatalf("ClassifyBatch returned %d labels for %d clips", len(got), len(ps))
			}
			for i, p := range ps {
				if want := d.ClassifyPattern(p); got[i] != want {
					t.Fatalf("%s: clip %d: batch %v, scalar %v", name, i, got[i], want)
				}
			}
		})
	}
}

// TestClassifyBatchEmpty covers the zero-clip and no-kernel edges.
func TestClassifyBatchEmpty(t *testing.T) {
	d := trainedDetector(t, DefaultConfig())
	if out := d.ClassifyBatch(nil); len(out) != 0 {
		t.Fatalf("nil batch: %v", out)
	}
	var empty Detector
	out := empty.ClassifyBatch([]*clip.Pattern{b0(t)})
	if len(out) != 1 || out[0] != clip.NonHotspot {
		t.Fatalf("kernel-less detector: %v", out)
	}
}

func b0(t *testing.T) *clip.Pattern {
	t.Helper()
	return testBenchmark().Train[0]
}

// TestParallelForRepanicsOnCaller: a panic in one worker surfaces on the
// calling goroutine, where a server handler (or the test) can see it, as a
// *workerpanic.Error with the worker's value and stack.
func TestParallelForRepanicsOnCaller(t *testing.T) {
	got := func() (v any) {
		defer func() { v = recover() }()
		parallelFor(1000, 4, func(i int) {
			if i == 3 {
				panic("item boom")
			}
		})
		return nil
	}()
	p, ok := got.(*workerpanic.Error)
	if !ok || p.Value != "item boom" || len(p.Stack) == 0 {
		t.Fatalf("recovered %#v, want a *workerpanic.Error of \"item boom\" with its stack", got)
	}
}

// TestDetectContextReturnsWorkerPanic: a panic in an evaluation worker
// (here from a nil kernel, standing in for a bug) ends DetectContext, which
// serves /v1/scan's non-tiled route, with the *workerpanic.Error instead of
// a panic on the caller; Detect, which has no error to return, raises it
// again.
func TestDetectContextReturnsWorkerPanic(t *testing.T) {
	l := testBenchmark().Test
	d := trainedDetector(t, DefaultConfig())
	d.SetWorkers(4)
	d.kernels[0] = nil
	_, err := d.DetectContext(context.Background(), l)
	var p *workerpanic.Error
	if !errors.As(err, &p) || len(p.Stack) == 0 {
		t.Fatalf("DetectContext: err = %v, want a *workerpanic.Error with the worker's stack", err)
	}
	got := func() (v any) {
		defer func() { v = recover() }()
		d.Detect(l)
		return nil
	}()
	if _, ok := got.(*workerpanic.Error); !ok {
		t.Fatalf("Detect: recovered %v, want a *workerpanic.Error", got)
	}
}
