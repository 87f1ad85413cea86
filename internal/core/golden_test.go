package core

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites testdata/train_digest.txt from the current training
// code. Only regenerate it for a change that is meant to move model bytes:
// the digest keys every tile store, so a new digest invalidates them all.
var update = flag.Bool("update", false, "regenerate the golden training digest in testdata")

const goldenDigestFile = "testdata/train_digest.txt"

// TestTrainGoldenDigest pins the bytes of a trained model: Train on the
// package's test benchmark must reproduce the committed ModelDigest with
// one worker and with the default worker count, on every simd dispatch.
// TestTrainDeterministic only compares two trainings with each other, so
// without this a change that moves every model the same way would pass.
func TestTrainGoldenDigest(t *testing.T) {
	b := testBenchmark()
	serial := DefaultConfig()
	serial.Workers = 1
	got := map[string]string{}
	for name, cfg := range map[string]Config{"workers=1": serial, "default": DefaultConfig()} {
		d, err := Train(b.Train, cfg)
		if err != nil {
			t.Fatalf("%s: train: %v", name, err)
		}
		got[name] = d.ModelDigest()
	}
	if got["workers=1"] != got["default"] {
		t.Fatalf("digest depends on the worker count: workers=1 %s, default %s", got["workers=1"], got["default"])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenDigestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, []byte(got["default"]+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenDigestFile)
	if err != nil {
		t.Fatalf("golden digest: %v (regenerate with -update)", err)
	}
	if want := strings.TrimSpace(string(raw)); got["default"] != want {
		t.Fatalf("model digest %s, golden %s: training no longer reproduces the committed model bytes (regenerate with -update only if that is intended)",
			got["default"], want)
	}
}
