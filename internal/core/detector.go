package core

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/obs"
	"hotspot/internal/svm"
	"hotspot/internal/topo"
)

// Detector is a trained hotspot-detection model: one SVM kernel per hotspot
// cluster plus the optional feedback kernel.
type Detector struct {
	// mu guards cfg: SetBias and SetWorkers may be called while Detect or
	// ClassifyPattern run on other goroutines, so every evaluation takes a
	// config snapshot under the read lock. The kernels themselves are
	// immutable after Train.
	mu      sync.RWMutex
	cfg     Config
	kernels []*kernelUnit
	// feedback is nil when feedback learning is off or produced no extras.
	feedback *feedbackUnit
	// stats records training-time counters for reporting.
	stats TrainStats
	// selection is the optional model-selection provenance (see
	// selection.go); nil for models trained with fixed parameters.
	selection *Selection
	// telemetry records the training pipeline's stage timings and counts.
	telemetry obs.Telemetry

	// memo is the pre-screen's verdict cache (see prescreen.go), swapped
	// atomically whenever the evaluation configuration changes.
	memo atomic.Pointer[verdictMemo]
	// digest memoizes ModelDigest (see persist.go).
	digest atomic.Pointer[digestMemo]
}

// config returns a snapshot of the detector's configuration, safe against
// concurrent SetBias/SetWorkers.
func (d *Detector) config() Config {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.cfg
}

// Telemetry returns the training-time stage timings and counters.
func (d *Detector) Telemetry() obs.Telemetry { return d.telemetry }

// Config returns a snapshot of the detector's current configuration (the
// one it was trained or loaded with, plus any SetBias/SetWorkers/SetObs
// applied since). Safe for concurrent use.
func (d *Detector) Config() Config { return d.config() }

// TrainStats reports what training did.
type TrainStats struct {
	// HotspotClusters and NonHotspotClusters count the topological
	// clusters of each class.
	HotspotClusters, NonHotspotClusters int
	// UpsampledHS is the hotspot pattern count after data shifting.
	UpsampledHS int
	// NonHotspotCentroids is the downsampled nonhotspot population.
	NonHotspotCentroids int
	// FeedbackExtras counts the mispredicted nonhotspot centroids that
	// trained the feedback kernel.
	FeedbackExtras int
	// SelfIters sums the self-training rounds across kernels.
	SelfIters int
}

// Stats returns the training statistics.
func (d *Detector) Stats() TrainStats { return d.stats }

// NumKernels returns the number of per-cluster SVM kernels.
func (d *Detector) NumKernels() int { return len(d.kernels) }

// kernelUnit is one per-cluster SVM kernel: its topology key, feature
// extractor (slot layout of the cluster representative), scaler and model.
type kernelUnit struct {
	key       string
	extractor *features.Extractor
	scaler    *svm.Scaler
	model     *svm.Model
	centroid  topo.Density
	// hotspots are the cluster's hotspot patterns (kept for feedback
	// training).
	hotspots []*clip.Pattern
}

// feedbackUnit is the §III-D4 feedback kernel: trained on whole-window
// (core + ambit) features to separate true hotspots from the nonhotspot
// centroids the multiple kernels mispredict.
type feedbackUnit struct {
	slots  int
	scaler *svm.Scaler
	model  *svm.Model
}

func (f *feedbackUnit) vector(p *clip.Pattern) []float64 {
	return features.VectorDirect(p.Rects, p.Window, f.slots)
}

// errors
var (
	// ErrNoHotspots is returned when the training set has no hotspots.
	ErrNoHotspots = errors.New("core: training set contains no hotspot patterns")
	// ErrNoNonHotspots is returned when the training set has no
	// nonhotspots.
	ErrNoNonHotspots = errors.New("core: training set contains no nonhotspot patterns")
)

// Train builds a detector from a labelled training set, following Fig. 9:
// data-shifting upsampling, topological classification, nonhotspot
// centroid downsampling, per-cluster iterative SVM learning, and feedback
// kernel learning. It is Prepare followed by Prepared.Train; callers that
// need the intermediate group structure (e.g. per-group model selection)
// use those two stages directly.
//
// Every stage is timed into the detector's Telemetry; with cfg.Obs set the
// same stages feed duration histograms and counters in the registry, and
// with cfg.Progress set each self-training round streams an event.
func Train(train []*clip.Pattern, cfg Config) (*Detector, error) {
	p, err := Prepare(train, cfg)
	if err != nil {
		return nil, err
	}
	return p.Train()
}

// progressEmitter wraps cfg.Progress so concurrent per-cluster goroutines
// never run the user callback concurrently; the elapsed field is stamped
// here. Returns nil when progress streaming is off.
func progressEmitter(cfg Config) func(obs.Event) {
	if cfg.Progress == nil {
		return nil
	}
	start := time.Now()
	var mu sync.Mutex
	cb := cfg.Progress
	return func(e obs.Event) {
		e.Elapsed = time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		cb(e)
	}
}

// roundEmitter adapts a progress emitter to iterativeTrain's per-round
// callback for one stage/kernel. Returns nil when emit is nil.
func roundEmitter(emit func(obs.Event), stage string, kernel int) func(round, items int, c, gamma, acc float64) {
	if emit == nil {
		return nil
	}
	return func(round, items int, c, gamma, acc float64) {
		emit(obs.Event{
			Stage:    stage,
			Kernel:   kernel,
			Round:    round,
			Items:    items,
			C:        c,
			Gamma:    gamma,
			Accuracy: acc,
		})
	}
}

// coreSamples adapts patterns to topo samples classified on their cores.
func coreSamples(patterns []*clip.Pattern) []topo.Sample {
	out := make([]topo.Sample, len(patterns))
	for i, p := range patterns {
		out[i] = topo.Sample{Rects: p.Rects, Region: p.Core}
	}
	return out
}

// windowSamples adapts patterns to topo samples classified on their whole
// clip windows (core plus ambit).
func windowSamples(patterns []*clip.Pattern) []topo.Sample {
	out := make([]topo.Sample, len(patterns))
	for i, p := range patterns {
		out[i] = topo.Sample{Rects: p.Rects, Region: p.Window}
	}
	return out
}

// gridsFor adapts a pattern slice to MergeClusters' grid accessor.
func gridsFor(patterns []*clip.Pattern, cfg Config) func(int) topo.Density {
	grid := cfg.Topo.DensityGrid
	if grid <= 0 {
		grid = topo.DefaultOptions.DensityGrid
	}
	return topo.GridsOf(func(i int) topo.Density {
		p := patterns[i]
		return topo.CanonicalDensity(p.CoreRects(), p.Core, grid)
	}, len(patterns))
}

// upsample adds four shifted derivatives per hotspot pattern.
func upsample(hs []*clip.Pattern, shift int32) []*clip.Pattern {
	if shift <= 0 {
		return hs
	}
	out := make([]*clip.Pattern, 0, 5*len(hs))
	for _, p := range hs {
		out = append(out, p)
		out = append(out,
			p.Shifted(shift, 0, nil),
			p.Shifted(-shift, 0, nil),
			p.Shifted(0, shift, nil),
			p.Shifted(0, -shift, nil),
		)
	}
	return out
}

// trainClusterKernel fits one per-cluster kernel: the cluster's hotspots
// against all nonhotspot centroids (pre-extracted), with iterative C/gamma
// doubling seeded by the group's hyperparameter override (when set).
func trainClusterKernel(cluster topo.Cluster, repr *clip.Pattern, members []*clip.Pattern, centroids []features.Extracted, cfg Config, gp GroupParams, onRound func(int, int, float64, float64, float64)) (*kernelUnit, int, error) {
	unit := &kernelUnit{
		key:      cluster.Key,
		centroid: cluster.Centroid,
		hotspots: members,
	}
	unit.extractor = features.NewExtractor(repr.CoreRects(), repr.Core)
	scaled, labels, scaler := groupRows(unit.extractor, members, centroids)
	unit.scaler = scaler

	model, iters, err := iterativeTrain(scaled, labels, cfg, gp, 1, onRound)
	if err != nil {
		return nil, 0, err
	}
	unit.model = model
	return unit, iters, nil
}

// trainBasicKernel fits the Table III "Basic" single huge kernel.
func trainBasicKernel(hs, nhs []*clip.Pattern, cfg Config, onRound func(int, int, float64, float64, float64)) (*kernelUnit, int, error) {
	unit := &kernelUnit{key: "", hotspots: hs}
	scaled, labels, scaler := basicRows(hs, nhs, cfg.BasicSlots)
	unit.scaler = scaler
	model, iters, err := iterativeTrain(scaled, labels, cfg, groupParams(cfg, 0), 1, onRound)
	if err != nil {
		return nil, 0, err
	}
	unit.model = model
	return unit, iters, nil
}

// iterativeTrain realizes §III-D2: train, self-evaluate on the training
// data, and double C and gamma until the training accuracy reaches the
// target or the round budget is exhausted. The best model seen is kept.
// gp seeds the schedule (cross-validated per-group winners); zero fields
// fall back to the Config-wide defaults. onRound, when non-nil, observes
// each round's parameters and accuracy (the progress-streaming hook).
func iterativeTrain(rows [][]float64, labels []int, cfg Config, gp GroupParams, weightPos float64, onRound func(round, items int, c, gamma, acc float64)) (*svm.Model, int, error) {
	c, gamma := gp.C, gp.Gamma
	if c <= 0 {
		c = cfg.InitialC
	}
	if gamma <= 0 {
		gamma = cfg.InitialGamma
	}
	if c <= 0 {
		c = 1000
	}
	if gamma <= 0 {
		gamma = 0.01
	}
	maxIter := cfg.MaxSelfIter
	if maxIter <= 0 {
		maxIter = 6
	}
	var best *svm.Model
	bestAcc := -1.0
	rounds := 0
	for round := 0; round < maxIter; round++ {
		rounds++
		model, err := svm.Train(rows, labels, svm.Params{C: c, Gamma: gamma, Tol: gp.Tol, WeightPos: weightPos, Obs: cfg.Obs})
		if err != nil {
			return nil, rounds, err
		}
		acc := model.Accuracy(rows, labels)
		if acc > bestAcc {
			best, bestAcc = model, acc
		}
		if onRound != nil {
			onRound(rounds, len(rows), c, gamma, acc)
		}
		cfg.Obs.Counter("core.self_train_rounds").Inc()
		if acc >= cfg.TrainAccuracy {
			break
		}
		c *= 2
		gamma *= 2
	}
	return best, rounds, nil
}

// trainFeedback realizes §III-D4 and Fig. 9(b): self-evaluate the
// nonhotspot population through the multiple kernels; the extras
// (nonhotspots still classified as hotspots) are re-clustered with their
// ambits and their sub-cluster centroids become the feedback negatives,
// while the hotspots of the contributing kernels become the positives.
//
// Deviation from the paper: the self-evaluation runs over every nonhotspot
// training pattern, not only the cluster centroids. The centroids are each
// kernel's own training negatives and are almost always classified
// correctly, so they carry no feedback signal; the downsampled-away
// patterns are exactly the unseen near-misses the feedback kernel exists
// to reclaim.
func (d *Detector) trainFeedback(nonhotspots []*clip.Pattern, cfg Config, onRound func(int, int, float64, float64, float64)) {
	// The self-evaluation bypasses the verdict memo. The memo is exact, so
	// the verdicts are the same; but the training clips hardly ever repeat
	// a core geometry, so the memo would only fill up and stay live through
	// the feedback solve and beyond.
	evalCfg := cfg
	evalCfg.DisablePrescreen = true
	// Chunks run across the workers; each records its flagging kernels by
	// clip, so the extras keep the nonhotspots' order.
	kidx := make([]int, len(nonhotspots))
	evalChunks(nonhotspots, cfg.Workers, func(s *evalScratch, lo int, chunk []*clip.Pattern) {
		for i, v := range d.evalBatchScratch(s, chunk, evalCfg) {
			kidx[lo+i] = -1
			if v.flagged {
				kidx[lo+i] = v.kidx
			}
		}
	})
	var extras []*clip.Pattern
	contributing := map[int]bool{}
	for i, k := range kidx {
		if k >= 0 {
			extras = append(extras, nonhotspots[i])
			contributing[k] = true
		}
	}
	d.stats.FeedbackExtras = len(extras)
	if len(extras) == 0 {
		return // every centroid is classified correctly: nothing to fix
	}
	// Sub-cluster the extras with ambit information (classification on
	// the whole clip window rather than the core only).
	sub := topo.ClassifyObs(windowSamples(extras), cfg.Topo, cfg.Obs)
	var negatives []*clip.Pattern
	for _, c := range sub {
		negatives = append(negatives, extras[c.Representative])
	}
	// Positives: hotspots of every contributing kernel, in deterministic
	// kernel order (map iteration order would otherwise make the SMO row
	// order — and therefore the model — run-dependent).
	var kidxs []int
	for kidx := range contributing {
		kidxs = append(kidxs, kidx)
	}
	sort.Ints(kidxs)
	var positives []*clip.Pattern
	for _, kidx := range kidxs {
		positives = append(positives, d.kernels[kidx].hotspots...)
	}
	if len(positives) == 0 {
		return
	}
	fb := &feedbackUnit{slots: cfg.BasicSlots}
	// positives is this function's own slice, so appending cannot clobber
	// a kernel's hotspots. Each row goes to its pattern's slot, so the row
	// order does not depend on which worker extracts it.
	labelled := append(positives, negatives...)
	rows := make([][]float64, len(labelled))
	labels := make([]int, len(labelled))
	parallelFor(len(labelled), cfg.Workers, func(i int) {
		rows[i] = fb.vector(labelled[i])
	})
	for i := range labels {
		labels[i] = -1
		if i < len(positives) {
			labels[i] = +1
		}
	}
	fb.scaler = svm.FitScaler(rows)
	scaled := fb.scaler.ApplyAll(rows)
	model, _, err := iterativeTrain(scaled, labels, cfg, GroupParams{}, cfg.FeedbackWeightPos, onRound)
	if err != nil {
		return // feedback is an optimization; training continues without it
	}
	fb.model = model
	d.feedback = fb
}
