package core

import (
	"bytes"
	"errors"
	"testing"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/geom"
	"hotspot/internal/svm"
)

// fuzzModel serializes a small hand-built model: nk keyed kernels over
// the 5-component nontopological vector, each deciding a little above
// zero (so every clip is flagged, with a confidence below the feedback
// override), plus a one-slot feedback kernel that never reclaims. mutate,
// when non-nil, edits the detector before it is saved.
func fuzzModel(t testing.TB, nk int, mutate func(*Detector)) []byte {
	t.Helper()
	d := &Detector{cfg: DefaultConfig()}
	d.cfg.Workers = 1
	for i := 0; i < nk; i++ {
		d.kernels = append(d.kernels, &kernelUnit{
			key:       string(rune('a' + i)),
			extractor: features.NewExtractorFromSlots(nil),
			scaler:    &svm.Scaler{Min: []float64{0, 0, 0, 0, 0}, Max: []float64{16, 16, 1200, 1200, 1}},
			model: &svm.Model{
				SVs:   [][]float64{{0.2, 0.2, 0.1, 0.1, 0.3}, {0.5, 0.4, 0.2, 0.3, 0.6}},
				Coef:  []float64{0.1, 0.1},
				Rho:   -0.1,
				Gamma: 0.5,
			},
		})
	}
	d.feedback = &feedbackUnit{
		slots:  1,
		scaler: &svm.Scaler{Min: make([]float64, 10), Max: []float64{1, 1, 1, 1, 1, 16, 16, 1200, 1200, 1}},
		model: &svm.Model{
			SVs:   [][]float64{{0, 0, 0, 0, 0, 0.2, 0.2, 0.1, 0.1, 0.3}},
			Coef:  []float64{-1},
			Gamma: 0.5,
		},
	}
	if mutate != nil {
		mutate(d)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzClips is a fixed batch of hand-built clips in the default clip spec:
// an empty core, a single wire, and a small wire pattern.
func fuzzClips() []*clip.Pattern {
	spec := clip.DefaultSpec
	var out []*clip.Pattern
	for _, rects := range [][]geom.Rect{
		nil,
		{geom.R(1600, 2300, 3200, 2500)},
		{geom.R(1800, 1800, 2000, 3000), geom.R(2200, 1900, 3000, 2100), geom.R(2200, 2600, 2400, 3000)},
	} {
		at := geom.Pt(1800, 1800)
		out = append(out, &clip.Pattern{Window: spec.WindowFor(at), Core: spec.CoreFor(at), Rects: rects})
	}
	return out
}

// FuzzLoad feeds arbitrary model JSON to Load. Load must either fail or
// return a detector that classifies a fixed clip batch — flagged clips
// included, so the feedback kernel runs — without panicking. The seeds
// are valid one- and two-kernel models plus three shapes that decode but
// cannot be evaluated: an extra coefficient, a null scaler, and a scaler
// whose maxima are shorter than its minima.
func FuzzLoad(f *testing.F) {
	f.Add(fuzzModel(f, 1, nil))
	f.Add(fuzzModel(f, 2, nil))
	f.Add(fuzzModel(f, 1, func(d *Detector) {
		m := d.kernels[0].model
		m.Coef = append(m.Coef, 0.1)
	}))
	f.Add(fuzzModel(f, 1, func(d *Detector) { d.kernels[0].scaler = nil }))
	f.Add(fuzzModel(f, 1, func(d *Detector) {
		sc := d.kernels[0].scaler
		sc.Max = sc.Max[:3]
	}))

	clips := fuzzClips()
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range clips {
			d.ClassifyPattern(p)
		}
		d.ClassifyBatch(clips)
	})
}

// TestLoadRejectsUnevaluableModels pins the three malformed shapes FuzzLoad
// is seeded with: each decodes, and Load refuses it with ErrInvalidModel.
func TestLoadRejectsUnevaluableModels(t *testing.T) {
	d, err := Load(bytes.NewReader(fuzzModel(t, 2, nil)))
	if err != nil {
		t.Fatalf("valid hand-built model: %v", err)
	}
	labels := d.ClassifyBatch(fuzzClips())
	flagged := 0
	for _, l := range labels {
		if l == clip.Hotspot {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("hand-built model flags no clip; the fuzz batch would skip feedback")
	}

	for name, mutate := range map[string]func(*Detector){
		"extra coef":         func(d *Detector) { d.kernels[0].model.Coef = append(d.kernels[0].model.Coef, 0.1) },
		"null scaler":        func(d *Detector) { d.kernels[0].scaler = nil },
		"short scaler max":   func(d *Detector) { d.kernels[0].scaler.Max = d.kernels[0].scaler.Max[:3] },
		"feedback coef":      func(d *Detector) { d.feedback.model.Coef = nil },
		"feedback no scaler": func(d *Detector) { d.feedback.scaler = nil },
	} {
		if _, err := Load(bytes.NewReader(fuzzModel(t, 1, mutate))); !errors.Is(err, ErrInvalidModel) {
			t.Errorf("%s: Load err = %v, want ErrInvalidModel", name, err)
		}
	}
}
