// Package core assembles the paper's full hotspot-detection framework
// (Fig. 3): topological classification, critical feature extraction,
// population balancing, iterative multiple SVM-kernel learning, feedback
// kernel learning, density-based clip extraction, multiple-kernel plus
// feedback-kernel evaluation, and redundant clip removal.
package core

import (
	"runtime"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/topo"
)

// Config carries every tunable of the framework. DefaultConfig mirrors the
// parameter list of §V.
type Config struct {
	// Spec is the clip geometry (1.2 um core in a 4.8 um clip).
	Spec clip.Spec
	// Layer is the metal layer under test.
	Layer layout.Layer

	// InitialC and InitialGamma seed the iterative learning (1000, 0.01);
	// both double each self-training round (§III-D2).
	InitialC     float64
	InitialGamma float64
	// MaxSelfIter bounds the self-training rounds.
	MaxSelfIter int
	// TrainAccuracy is the self-training stopping accuracy (0.90).
	TrainAccuracy float64
	// ShiftNM is the data-shifting distance for hotspot upsampling
	// (120 nm = core side / 10, §III-D3). 0 disables shifting.
	ShiftNM geom.Coord
	// Topo parameterizes topological classification (§III-B).
	Topo topo.Options

	// EnableTopo switches multiple per-cluster kernels on; off yields the
	// single-huge-kernel "Basic" baseline of Table III.
	EnableTopo bool
	// EnableFeedback switches the feedback kernel on (§III-D4).
	EnableFeedback bool
	// EnableRemoval switches redundant clip removal on (§III-F).
	EnableRemoval bool

	// BasicSlots is the rule-rectangle slot budget of the Basic baseline's
	// direct feature vector (and of the feedback kernel, which mixes
	// topologies).
	BasicSlots int

	// Requirements filter extracted clips (§III-E).
	Requirements clip.Requirements
	// MergeMinOverlap is the minimum core overlap fraction for clip
	// merging (0.20).
	MergeMinOverlap float64
	// ReframeSep is the reframed core pitch l_s < l_c (1150 nm).
	ReframeSep geom.Coord
	// ReframeThreshold is the region population beyond which reframing
	// kicks in (4, §III-F).
	ReframeThreshold int

	// FeedbackMargin makes the feedback kernel conservative: a flagged
	// clip is reclaimed as a nonhotspot only when the feedback decision
	// is below -FeedbackMargin, so borderline clips keep their hotspot
	// flag (the paper requires false-alarm reduction *without* accuracy
	// loss).
	FeedbackMargin float64
	// FeedbackWeightPos up-weights the hotspot class in feedback-kernel
	// training, biasing its errors away from reclaiming true hotspots.
	FeedbackWeightPos float64
	// FeedbackOverride protects confident flags: clips whose best kernel
	// decision is at or above this value are never reclaimed (<= 0
	// disables the protection).
	FeedbackOverride float64

	// MaxKernels bounds the hotspot cluster (and thus kernel) count:
	// clusters beyond the bound are merged into their density-nearest
	// large cluster. 0 is unbounded. Synthetic training sets fragment the
	// string-level classification far beyond the paper's K=10 expected
	// clusters; the bound keeps evaluation cost linear in a constant.
	MaxKernels int
	// MaxCentroids bounds the downsampled nonhotspot centroid population
	// (each kernel's negative set; SMO memory grows quadratically).
	// 0 is unbounded.
	MaxCentroids int

	// RouteK > 0 routes an evaluation clip to its exact-topology kernels
	// (or its K density-nearest ones) instead of evaluating every kernel;
	// 0 evaluates all kernels, the paper's behaviour.
	RouteK int
	// DisablePrescreen switches the clip-evaluation fast path's exact
	// pre-screen off (see prescreen.go): the canonical-geometry verdict
	// memo. The memo is verdict-preserving — reports are byte-identical
	// either way — so the zero value (memo on) is the right default; the
	// knob exists for the equivalence tests, for benchmarking the slow
	// path, and for feedback self-evaluation, whose training clips hardly
	// ever repeat a core geometry.
	DisablePrescreen bool
	// Bias shifts every kernel's decision threshold: 0 is the paper's
	// operating point ("ours"); positive values demand stronger evidence,
	// realizing ours_med / ours_low.
	Bias float64

	// Workers bounds evaluation/training parallelism; 1 is the serial
	// "ours_nopara" mode.
	Workers int

	// GroupParams overrides the SVM starting hyperparameters per topology
	// group, indexed by the deterministic cluster order that Prepare (and
	// therefore Train) produces. Groups beyond the slice — and zero fields
	// within an entry — fall back to InitialC/InitialGamma and the solver
	// default tolerance. Model selection (internal/train) fills this with
	// each group's cross-validated winner.
	GroupParams []GroupParams

	// Obs, when non-nil, receives framework metrics: stage duration
	// histograms, clip-extraction and classification counters, and the SVM
	// solver's iteration/cache counters. nil (the default) disables the
	// registry at zero cost. Not persisted with saved models.
	Obs *obs.Registry `json:"-"`
	// Progress, when non-nil, streams training progress: one event per
	// self-training round per kernel, plus stage-completion events. Calls
	// are serialized — the callback never runs concurrently with itself —
	// so it may write to shared state without locking. Not persisted.
	Progress func(obs.Event) `json:"-"`
}

// GroupParams is one topology group's SVM hyperparameter override: the
// starting point of the iterative-doubling schedule (§III-D2) and the SMO
// stopping tolerance. The zero value defers entirely to the Config-wide
// defaults.
type GroupParams struct {
	// C is the soft-margin penalty seed (0: Config.InitialC).
	C float64 `json:"c,omitempty"`
	// Gamma is the RBF width seed (0: Config.InitialGamma).
	Gamma float64 `json:"gamma,omitempty"`
	// Tol is the SMO KKT tolerance (0: the solver default).
	Tol float64 `json:"tol,omitempty"`
}

// groupParams returns group ci's override, zero when absent.
func groupParams(cfg Config, ci int) GroupParams {
	if ci >= 0 && ci < len(cfg.GroupParams) {
		return cfg.GroupParams[ci]
	}
	return GroupParams{}
}

// DefaultConfig returns the §V parameterization.
func DefaultConfig() Config {
	return Config{
		Spec:              clip.DefaultSpec,
		Layer:             1,
		InitialC:          1000,
		InitialGamma:      0.01,
		MaxSelfIter:       6,
		TrainAccuracy:     0.90,
		ShiftNM:           120,
		Topo:              topo.DefaultOptions,
		EnableTopo:        true,
		EnableFeedback:    true,
		EnableRemoval:     true,
		BasicSlots:        24,
		Requirements:      clip.DefaultRequirements,
		MergeMinOverlap:   0.20,
		ReframeSep:        1150,
		ReframeThreshold:  4,
		MaxKernels:        64,
		MaxCentroids:      384,
		FeedbackMargin:    1.5,
		FeedbackWeightPos: 2,
		FeedbackOverride:  0.5,
		RouteK:            0, // 0: evaluate every kernel (paper-faithful)
		Workers:           runtime.GOMAXPROCS(0),
	}
}

// BasicConfig returns the Table III "Basic" baseline: one single huge SVM
// kernel, no topological classification, no feedback, no removal.
func BasicConfig() Config {
	cfg := DefaultConfig()
	cfg.EnableTopo = false
	cfg.EnableFeedback = false
	cfg.EnableRemoval = false
	return cfg
}
