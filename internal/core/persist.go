package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hotspot/internal/features"
	"hotspot/internal/geom"
	"hotspot/internal/svm"
	"hotspot/internal/topo"
)

// The persisted model format: a JSON document with every kernel's support
// vectors, scaler, slot layout, and topology metadata, plus the feedback
// kernel and the configuration it was trained under. The format is
// versioned so later releases can evolve it.
//
// Version history:
//
//	1: initial format.
//	2: optional model-selection header (seed, grid, fold scores, per-group
//	   winners) and Config.GroupParams. v1 documents still load; v1
//	   readers would ignore the additions, so the bump is a statement of
//	   intent, not a break.

const (
	modelFormatVersion    = 2
	minModelFormatVersion = 1
)

type persistedModel struct {
	Version   int               `json:"version"`
	Config    Config            `json:"config"`
	Stats     TrainStats        `json:"stats"`
	Selection *Selection        `json:"selection,omitempty"`
	Kernels   []persistedKernel `json:"kernels"`
	Feedback  *persistedSVM     `json:"feedback,omitempty"`
	FbSlots   int               `json:"feedback_slots,omitempty"`
}

type persistedKernel struct {
	Key      string              `json:"key"`
	Slots    []features.RuleRect `json:"slots"`
	Centroid topo.Density        `json:"centroid"`
	SVM      persistedSVM        `json:"svm"`
	Scaler   *svm.Scaler         `json:"scaler"`
}

type persistedSVM struct {
	SVs    [][]float64 `json:"svs"`
	Coef   []float64   `json:"coef"`
	Rho    float64     `json:"rho"`
	Gamma  float64     `json:"gamma"`
	Scaler *svm.Scaler `json:"scaler,omitempty"`
}

func toPersistedSVM(m *svm.Model, sc *svm.Scaler) persistedSVM {
	return persistedSVM{SVs: m.SVs, Coef: m.Coef, Rho: m.Rho, Gamma: m.Gamma, Scaler: sc}
}

func (p persistedSVM) model() *svm.Model {
	return &svm.Model{SVs: p.SVs, Coef: p.Coef, Rho: p.Rho, Gamma: p.Gamma}
}

// persisted assembles the detector's complete serializable state under the
// given configuration and selection — the document Save writes and
// ModelDigest hashes.
func (d *Detector) persisted(cfg Config, sel *Selection) persistedModel {
	pm := persistedModel{
		Version:   modelFormatVersion,
		Config:    cfg,
		Stats:     d.stats,
		Selection: sel,
	}
	for _, k := range d.kernels {
		pm.Kernels = append(pm.Kernels, persistedKernel{
			Key:      k.key,
			Slots:    k.extractor.Slots(),
			Centroid: k.centroid,
			SVM:      toPersistedSVM(k.model, nil),
			Scaler:   k.scaler,
		})
	}
	if d.feedback != nil {
		fb := toPersistedSVM(d.feedback.model, d.feedback.scaler)
		pm.Feedback = &fb
		pm.FbSlots = d.feedback.slots
	}
	return pm
}

// settings snapshots the configuration and the selection together, so a
// concurrent SetBias or SetSelection cannot tear the pair.
func (d *Detector) settings() (Config, *Selection) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.cfg, d.selection
}

// Save serializes the trained detector. The model is self-contained: Load
// restores a detector that classifies identically without retraining.
func (d *Detector) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(d.persisted(d.settings()))
}

// digestMemo is the last digest ModelDigest computed and the normalized
// configuration and selection it was computed under, marshaled.
type digestMemo struct {
	key    []byte
	digest string
}

// ModelDigest returns a stable hex digest of everything that can change a
// clip verdict: the trained kernels (support vectors, scalers, slots,
// centroids), the feedback SVM, and the verdict-relevant configuration
// (spec, layer, requirements, bias, RouteK, basic-kernel slots, selection
// provenance). It is the identity the tile result store is keyed under
// (see scan.OpenStore): two detectors with equal digests classify every
// clip identically, so cached tile verdicts are interchangeable between
// them.
//
// Fields that cannot affect a verdict are normalized out so they never
// spuriously invalidate a store: worker count, the snap-grid origin
// (derived per layout, already part of every tile key's coordinate
// frame), and the prescreen toggle (the verdict memo is exact — verified
// by TestPrescreenCascadeExact). Obs and Progress are excluded from the
// serialized form already.
//
// The digest hashes the whole marshaled model, megabytes for a trained
// detector, but only the configuration and the selection can change once
// Train or Load returns. So the result is memoized under those two,
// marshaled (a few hundred bytes): a call whose normalized configuration
// and selection match the last one's returns its digest without hashing
// the model again. Safe for concurrent use.
func (d *Detector) ModelDigest() string {
	cfg, sel := d.settings()
	cfg.Workers = 0
	cfg.Requirements.SnapBase = geom.Point{}
	cfg.DisablePrescreen = false
	key := mustMarshal(struct {
		Config    Config
		Selection *Selection
	}{cfg, sel})
	if m := d.digest.Load(); m != nil && bytes.Equal(m.key, key) {
		return m.digest
	}
	sum := sha256.Sum256(mustMarshal(d.persisted(cfg, sel)))
	digest := hex.EncodeToString(sum[:])
	d.digest.Store(&digestMemo{key: key, digest: digest})
	return digest
}

// mustMarshal marshals the digest inputs, which are plain structs and
// slices: an error is a programming bug, not a runtime condition.
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("core: marshaling model digest: %v", err))
	}
	return b
}

// ErrInvalidModel reports a model document that decodes but cannot be
// evaluated: a kernel without support vectors, coefficients that do not
// pair one-to-one with the support vectors, or a missing or malformed
// feature scaler. Load refuses such a model instead of handing out a
// detector that would panic on its first clip.
var ErrInvalidModel = errors.New("core: invalid model")

// checkSVM validates one persisted kernel's evaluable shape.
func checkSVM(name string, p persistedSVM, sc *svm.Scaler) error {
	if len(p.Coef) != len(p.SVs) {
		return fmt.Errorf("%w: %s has %d coefficients for %d support vectors", ErrInvalidModel, name, len(p.Coef), len(p.SVs))
	}
	if sc == nil {
		return fmt.Errorf("%w: %s has no scaler", ErrInvalidModel, name)
	}
	if len(sc.Min) != len(sc.Max) {
		return fmt.Errorf("%w: %s scaler has %d minima for %d maxima", ErrInvalidModel, name, len(sc.Min), len(sc.Max))
	}
	return nil
}

// Load restores a detector saved with Save. A document that decodes but
// cannot be evaluated fails with ErrInvalidModel.
func Load(r io.Reader) (*Detector, error) {
	var pm persistedModel
	dec := json.NewDecoder(r)
	if err := dec.Decode(&pm); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if pm.Version < minModelFormatVersion || pm.Version > modelFormatVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", pm.Version)
	}
	d := &Detector{cfg: pm.Config, stats: pm.Stats, selection: pm.Selection}
	for _, pk := range pm.Kernels {
		name := fmt.Sprintf("kernel %q", pk.Key)
		if len(pk.SVM.SVs) == 0 {
			return nil, fmt.Errorf("%w: %s has no support vectors", ErrInvalidModel, name)
		}
		if err := checkSVM(name, pk.SVM, pk.Scaler); err != nil {
			return nil, err
		}
		d.kernels = append(d.kernels, &kernelUnit{
			key:       pk.Key,
			extractor: features.NewExtractorFromSlots(pk.Slots),
			scaler:    pk.Scaler,
			model:     pk.SVM.model(),
			centroid:  pk.Centroid,
		})
	}
	if pm.Feedback != nil {
		if err := checkSVM("feedback kernel", *pm.Feedback, pm.Feedback.Scaler); err != nil {
			return nil, err
		}
		d.feedback = &feedbackUnit{
			slots:  pm.FbSlots,
			scaler: pm.Feedback.Scaler,
			model:  pm.Feedback.model(),
		}
	}
	return d, nil
}
