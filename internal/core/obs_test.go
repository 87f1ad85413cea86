package core

import (
	"encoding/json"
	"sync"
	"testing"

	"hotspot/internal/obs"
)

// TestTrainDetectTelemetry runs a small end-to-end train/detect with the
// observability layer on and asserts the Telemetry stage names, item
// counts, and registry counters are populated — the ISSUE acceptance
// checks for Report.Telemetry.
func TestTrainDetectTelemetry(t *testing.T) {
	b := testBenchmark()
	reg := obs.NewRegistry()
	var events []obs.Event // Progress calls are serialized: plain append is safe
	cfg := DefaultConfig()
	cfg.Obs = reg
	cfg.Progress = func(e obs.Event) { events = append(events, e) }

	d, err := Train(b.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	tel := d.Telemetry()
	for _, stage := range []string{
		"train.upsample", "train.classify.nonhotspot", "train.downsample",
		"train.classify.hotspot", "train.kernels", "train.feedback",
	} {
		if _, ok := tel.Stage(stage); !ok {
			t.Errorf("training stage %q missing from telemetry: %+v", stage, tel.Stages)
		}
	}
	if s, _ := tel.Stage("train.upsample"); s.Items != int64(d.Stats().UpsampledHS) {
		t.Errorf("upsample items: %d, want %d", s.Items, d.Stats().UpsampledHS)
	}
	if s, _ := tel.Stage("train.kernels"); s.Items != int64(d.NumKernels()) {
		t.Errorf("kernels items: %d, want %d", s.Items, d.NumKernels())
	}
	if tel.Counters["train.self_iters"] != int64(d.Stats().SelfIters) {
		t.Errorf("self_iters counter: %d, want %d", tel.Counters["train.self_iters"], d.Stats().SelfIters)
	}

	// Progress streamed at least one round per kernel, with sane fields.
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	perKernel := map[int]bool{}
	for _, e := range events {
		if e.Round < 1 || e.C <= 0 || e.Gamma <= 0 || e.Accuracy <= 0 || e.Accuracy > 1 {
			t.Fatalf("malformed event: %+v", e)
		}
		if e.Stage == "train.kernels" {
			perKernel[e.Kernel] = true
		}
	}
	if len(perKernel) != d.NumKernels() {
		t.Errorf("progress covered %d kernels, want %d", len(perKernel), d.NumKernels())
	}

	// Registry side: the subsystems reported through the shared registry.
	snap := reg.Snapshot()
	for _, ctr := range []string{"svm.trainings", "svm.smo_iterations", "topo.samples", "topo.clusters", "core.self_train_rounds"} {
		if snap.Counters[ctr] <= 0 {
			t.Errorf("registry counter %q not populated: %v", ctr, snap.Counters[ctr])
		}
	}

	rep := d.Detect(b.Test)
	tiles := rep.Telemetry.Counters["scan.tiles_total"]
	if s, ok := rep.Telemetry.Stage("scan.tiles"); !ok || tiles <= 0 || s.Items != tiles {
		t.Errorf("scan.tiles stage: %+v ok=%v want items=%d > 0", s, ok, tiles)
	}
	if _, ok := rep.Telemetry.Stage("detect.removal"); !ok {
		t.Errorf("detect.removal stage missing: %+v", rep.Telemetry.Stages)
	}
	if rep.Telemetry.Counters["detect.flagged"] != int64(rep.Flagged) {
		t.Errorf("flagged counter: %d, want %d", rep.Telemetry.Counters["detect.flagged"], rep.Flagged)
	}
	if rep.Telemetry.Counters["detect.kernel_evals"] <= 0 {
		t.Error("kernel_evals counter not populated")
	}

	// Report.Telemetry must be JSON-serializable and round-trip.
	data, err := json.Marshal(rep.Telemetry)
	if err != nil {
		t.Fatalf("telemetry not JSON-serializable: %v", err)
	}
	var back obs.Telemetry
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages) != len(rep.Telemetry.Stages) {
		t.Fatalf("telemetry JSON round trip lost stages: %s", data)
	}

	snap = reg.Snapshot()
	if snap.Counters["detect.runs"] != 1 || snap.Counters["scan.tiles_done"] != tiles ||
		snap.Counters["detect.kernel_evals"] != rep.Telemetry.Counters["detect.kernel_evals"] ||
		snap.Counters["detect.flagged"] != int64(rep.Flagged) {
		t.Errorf("detection registry counters: %+v", snap.Counters)
	}
}

// TestDetectTelemetryWithoutRegistry: Report.Telemetry is populated even
// with observability off (cfg.Obs == nil) — stage timing is always on.
func TestDetectTelemetryWithoutRegistry(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())
	rep := d.Detect(b.Test)
	if len(rep.Telemetry.Stages) == 0 {
		t.Fatal("telemetry empty without registry")
	}
	for _, stage := range []string{"scan.tiles", "detect.removal"} {
		if s, ok := rep.Telemetry.Stage(stage); !ok || s.Duration <= 0 {
			t.Fatalf("%s stage: %+v ok=%v", stage, s, ok)
		}
	}
}

// TestDetectLayoutConcurrent hammers one Detector from multiple
// goroutines — concurrent Detect and ClassifyPattern interleaved with
// SetBias/SetWorkers mutation. Run under -race this is the detector's
// thread-safety certificate (the ISSUE names the Config mutation during
// concurrent detection as the race to fix).
func TestDetectLayoutConcurrent(t *testing.T) {
	b := testBenchmark()
	cfg := DefaultConfig()
	// Small model: this test is about interleaving, not accuracy.
	cfg.MaxKernels = 8
	cfg.MaxSelfIter = 2
	cfg.EnableFeedback = false
	d := trainedDetector(t, cfg)

	const detectors = 3
	candidates := make([]int, detectors)
	var wg sync.WaitGroup
	for g := 0; g < detectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rep := d.Detect(b.Test)
			candidates[g] = rep.Candidates
		}(g)
	}
	// Mutators: flip the runtime knobs while detections are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			d.SetBias(float64(i%3) * 0.2)
			d.SetWorkers(1 + i%4)
		}
		d.SetBias(0)
		d.SetWorkers(cfg.Workers)
	}()
	// Concurrent single-clip classification.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			d.ClassifyPattern(b.Train[i%len(b.Train)])
		}
	}()
	wg.Wait()

	// Clip extraction is bias-independent: every run saw the same
	// candidate population.
	for g := 1; g < detectors; g++ {
		if candidates[g] != candidates[0] {
			t.Fatalf("run %d extracted %d candidates, run 0 extracted %d", g, candidates[g], candidates[0])
		}
	}
	if candidates[0] == 0 {
		t.Fatal("no candidates extracted")
	}
}
