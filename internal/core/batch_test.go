package core

import (
	"context"
	"errors"
	"testing"

	"hotspot/internal/clip"
	"hotspot/internal/workerpanic"
)

// TestClassifyBatchMatchesScalar pins the batched evaluation engine to the
// scalar reference (scalar_test.go): over the whole training set
// (hotspots, nonhotspots, and their shifted derivatives), ClassifyBatch and
// ClassifyPattern must produce exactly the labels the per-clip chain does.
// Each configuration runs at one and at four workers, which runs
// ClassifyBatch's chunks serially and in parallel on any host, and at a
// raised bias, which moves the memo's key. The memo is
// emptied before each cold pass so every fork evaluates; a warm
// ClassifyBatch pass then answers from the memo. Because DecisionBatch is
// bit-for-bit equal to scalar Decision, any divergence here is a
// routing/feedback bookkeeping bug, not numerics.
func TestClassifyBatchMatchesScalar(t *testing.T) {
	b := testBenchmark()
	ps := make([]*clip.Pattern, 0, 2*len(b.Train))
	for _, p := range b.Train {
		ps = append(ps, p, p.Shifted(40, -25, nil))
	}
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
			base := d.config()
			defer d.SetWorkers(base.Workers)
			defer d.SetBias(base.Bias)
			for _, v := range []struct {
				workers int
				bias    float64
			}{{1, base.Bias}, {4, base.Bias}, {1, 0.75}, {4, 0.75}} {
				d.SetWorkers(v.workers)
				d.SetBias(v.bias)
				want := make([]clip.Label, len(ps))
				for i, p := range ps {
					want[i] = d.classifyScalar(p, d.config())
				}
				check := func(pass string, got []clip.Label) {
					t.Helper()
					if len(got) != len(ps) {
						t.Fatalf("%s: %d labels for %d clips", pass, len(got), len(ps))
					}
					for i := range ps {
						if got[i] != want[i] {
							t.Fatalf("workers %d bias %v, %s: clip %d: %v, scalar %v",
								v.workers, v.bias, pass, i, got[i], want[i])
						}
					}
				}
				d.memo.Store(nil)
				check("cold ClassifyBatch", d.ClassifyBatch(ps))
				d.memo.Store(nil)
				lone := make([]clip.Label, len(ps))
				for i, p := range ps {
					lone[i] = d.ClassifyPattern(p)
				}
				check("cold ClassifyPattern", lone)
				check("warm ClassifyBatch", d.ClassifyBatch(ps))
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
// (here from a nil kernel, standing in for a bug) ends DetectContext with
// the *workerpanic.Error instead of a panic on the caller; Detect, which
// has no error to return, raises it again.
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
