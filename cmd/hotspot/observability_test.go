package main

import (
	"bytes"
	"strings"
	"testing"

	"hotspot/internal/obs"
)

// TestPrintObservabilityHistogramUnits checks that only histograms named
// *seconds print as durations: byte counts and batch sizes print as plain
// numbers, not as hours.
func TestPrintObservabilityHistogramUnits(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("svm.train_seconds").Observe(1.5)
	reg.Histogram("stage.train.kernels.seconds").Observe(0.25)
	reg.Histogram("eval.alloc_bytes_per_clip").Observe(28190)
	reg.Histogram("server.batch.size").Observe(64)
	var buf bytes.Buffer
	printObservability(&buf, nil, nil, reg)

	want := map[string]string{
		"svm.train_seconds":           "max=1.5s",
		"stage.train.kernels.seconds": "max=250ms",
		"eval.alloc_bytes_per_clip":   "max=28190",
		"server.batch.size":           "max=64",
	}
	lines := strings.Split(buf.String(), "\n")
	for name, suffix := range want {
		found := false
		for _, line := range lines {
			if f := strings.Fields(line); len(f) > 0 && f[0] == name {
				found = true
				if !strings.HasSuffix(line, suffix) {
					t.Errorf("%s: line %q, want it to end in %q", name, line, suffix)
				}
			}
		}
		if !found {
			t.Errorf("%s: no histogram line in\n%s", name, buf.String())
		}
	}
}
