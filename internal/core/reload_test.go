package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// TestSaveLoadConcurrentWithDetect exercises the inference server's hot
// reload path: Save and Load run while Detect and ClassifyPattern traffic
// flows on the same (and freshly loaded) detectors. Run under -race this
// asserts the RWMutex discipline holds across persistence.
func TestSaveLoadConcurrentWithDetect(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	var model bytes.Buffer
	if err := d.Save(&model); err != nil {
		t.Fatal(err)
	}
	data := model.Bytes()

	probe := b.Train[:20]
	want := make([]int8, len(probe))
	for i, p := range probe {
		want[i] = int8(d.ClassifyPattern(p))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Detection traffic on the live detector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			rep := d.Detect(b.Test)
			if rep.Candidates == 0 {
				errs <- errors.New("detect under load: no candidates")
			}
		}
	}()

	// Persistence traffic on the same detector (the server's Save side).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := d.Save(io.Discard); err != nil {
				errs <- err
			}
		}
	}()

	// Reloads: Load a fresh detector and serve classifications from it
	// while the original keeps detecting (the server's swap side).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				ld, err := Load(bytes.NewReader(data))
				if err != nil {
					errs <- err
					return
				}
				for j, p := range probe {
					if got := int8(ld.ClassifyPattern(p)); got != want[j] {
						errs <- errors.New("loaded detector classified differently under load")
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDetectContextCancelled(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := d.DetectContext(ctx, b.Test)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.Hotspots) != 0 {
		t.Fatalf("cancelled run reported %d hotspots", len(rep.Hotspots))
	}
}

func TestDetectContextDeadline(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	start := time.Now()
	full := d.Detect(b.Test) // uncancelled baseline for comparison
	fullDur := full.Runtime
	_, err := d.DetectContext(ctx, b.Test)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The cancelled run must cost well under a full evaluation: clip
	// extraction checks the context as well.
	if cancelled := time.Since(start) - fullDur; fullDur > 100*time.Millisecond && cancelled > fullDur {
		t.Fatalf("cancelled run took %v, full run %v", cancelled, fullDur)
	}
}

func TestDetectContextBackgroundMatchesDetect(t *testing.T) {
	b := testBenchmark()
	d := trainedDetector(t, DefaultConfig())

	plain := d.Detect(b.Test)
	rep, err := d.DetectContext(context.Background(), b.Test)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Hotspots) != len(plain.Hotspots) || rep.Candidates != plain.Candidates {
		t.Fatalf("DetectContext diverged: %d/%d hotspots, %d/%d candidates",
			len(rep.Hotspots), len(plain.Hotspots), rep.Candidates, plain.Candidates)
	}
}
