package core

import (
	"fmt"
	"sync"

	"hotspot/internal/clip"
	"hotspot/internal/features"
	"hotspot/internal/obs"
	"hotspot/internal/svm"
	"hotspot/internal/topo"
)

// Prepared is the model-selection view of a training set: the framework's
// preprocessing — data-shifting upsampling, topological classification,
// nonhotspot centroid downsampling (Fig. 9, stages before kernel fitting)
// — applied exactly once. Cross-validated hyperparameter search
// (internal/train) and the final Train call both operate on a Prepared,
// so they agree byte-for-byte on the group structure: group i of the
// search is kernel i of the trained detector.
//
// A Prepared is immutable except for SetGroupParams and is safe to Train
// more than once.
type Prepared struct {
	cfg           Config
	rawHS, rawNHS []*clip.Pattern
	// hs is the upsampled hotspot population (== rawHS in Basic mode).
	hs []*clip.Pattern
	// clusters are the hotspot topology clusters; empty in Basic mode,
	// where the single huge kernel is the only group.
	clusters  []topo.Cluster
	centroids []*clip.Pattern
	stats     TrainStats
	tel       obs.Telemetry
}

// Prepare runs the training-set preprocessing and returns the grouped
// view. Train(train, cfg) is exactly Prepare(train, cfg) followed by
// Prepared.Train().
func Prepare(train []*clip.Pattern, cfg Config) (*Prepared, error) {
	var hs, nhs []*clip.Pattern
	for _, p := range train {
		if p.Label == clip.Hotspot {
			hs = append(hs, p)
		} else {
			nhs = append(nhs, p)
		}
	}
	if len(hs) == 0 {
		return nil, ErrNoHotspots
	}
	if len(nhs) == 0 {
		return nil, ErrNoNonHotspots
	}
	p := &Prepared{cfg: cfg, rawHS: hs, rawNHS: nhs}
	if !cfg.EnableTopo {
		// Basic baseline: one huge kernel over the raw training data —
		// no data shifting, no downsampling — matching the unbalanced
		// #hs/#nhs ratios of the Table III "Basic" rows.
		p.hs = hs
		p.stats.HotspotClusters = 1
		p.stats.UpsampledHS = len(hs)
		p.stats.NonHotspotCentroids = len(nhs)
		return p, nil
	}
	tel := &p.tel

	// Upsample hotspots by data shifting (§III-D3): four shifted
	// derivatives per pattern introduce the fuzziness that absorbs clip
	// extraction misalignment.
	sp := obs.Begin(tel, cfg.Obs, "train.upsample")
	p.hs = upsample(hs, cfg.ShiftNM)
	p.stats.UpsampledHS = len(p.hs)
	sp.AddItems(int64(len(p.hs)))
	sp.End()

	// Downsample nonhotspots to topological cluster centroids.
	sp = obs.Begin(tel, cfg.Obs, "train.classify.nonhotspot")
	nhsClusters := topo.ClassifyObs(coreSamples(nhs), cfg.Topo, cfg.Obs)
	p.stats.NonHotspotClusters = len(nhsClusters)
	sp.AddItems(int64(len(nhsClusters)))
	sp.End()
	sp = obs.Begin(tel, cfg.Obs, "train.downsample")
	nhsClusters = topo.MergeClusters(nhsClusters, gridsFor(nhs, cfg), cfg.MaxCentroids)
	p.centroids = make([]*clip.Pattern, len(nhsClusters))
	for i, c := range nhsClusters {
		p.centroids[i] = nhs[c.Representative]
	}
	p.stats.NonHotspotCentroids = len(p.centroids)
	sp.AddItems(int64(len(p.centroids)))
	sp.End()

	sp = obs.Begin(tel, cfg.Obs, "train.classify.hotspot")
	hsClusters := topo.ClassifyObs(coreSamples(p.hs), cfg.Topo, cfg.Obs)
	p.stats.HotspotClusters = len(hsClusters)
	p.clusters = topo.MergeClusters(hsClusters, gridsFor(p.hs, cfg), cfg.MaxKernels)
	sp.AddItems(int64(len(p.clusters)))
	sp.End()
	return p, nil
}

// Config returns the configuration the set was prepared under (including
// any SetGroupParams applied since).
func (p *Prepared) Config() Config { return p.cfg }

// NumGroups returns the number of topology groups (per-cluster kernels);
// 1 in Basic mode.
func (p *Prepared) NumGroups() int {
	if !p.cfg.EnableTopo {
		return 1
	}
	return len(p.clusters)
}

// GroupKey returns group i's canonical topology key ("" in Basic mode).
// Keys may repeat across groups: density-level clustering can split one
// string-level bucket.
func (p *Prepared) GroupKey(i int) string {
	if !p.cfg.EnableTopo {
		return ""
	}
	return p.clusters[i].Key
}

// GroupSize returns group i's population: its hotspot member count (after
// upsampling) and its negative count (the shared centroid set).
func (p *Prepared) GroupSize(i int) (hotspots, negatives int) {
	if !p.cfg.EnableTopo {
		return len(p.rawHS), len(p.rawNHS)
	}
	return len(p.clusters[i].Members), len(p.centroids)
}

// GroupDataset builds group i's labelled, scaled dataset — exactly the
// rows kernel i trains on: member hotspot vectors (+1) against the
// nonhotspot centroids (-1), in the representative's slot layout, scaled
// by a scaler fit on those rows.
func (p *Prepared) GroupDataset(i int) (rows [][]float64, labels []int) {
	if !p.cfg.EnableTopo {
		rows, labels, _ = basicRows(p.rawHS, p.rawNHS, p.cfg.BasicSlots)
		return rows, labels
	}
	cluster := p.clusters[i]
	repr := p.hs[cluster.Representative]
	ex := features.NewExtractor(repr.CoreRects(), repr.Core)
	members := p.groupMembers(cluster)
	// The search calls this per group on its own workers, so the centroids
	// are extracted serially here.
	rows, labels, _ = groupRows(ex, members, extractCores(p.centroids, 1))
	return rows, labels
}

// groupMembers resolves a cluster's member indices to patterns.
func (p *Prepared) groupMembers(cluster topo.Cluster) []*clip.Pattern {
	members := make([]*clip.Pattern, len(cluster.Members))
	for i, m := range cluster.Members {
		members[i] = p.hs[m]
	}
	return members
}

// SetGroupParams installs per-group hyperparameter overrides (indexed by
// group number) for subsequent Train calls.
func (p *Prepared) SetGroupParams(gp []GroupParams) {
	p.cfg.GroupParams = append([]GroupParams(nil), gp...)
}

// Train fits the detector from the prepared groups: per-cluster iterative
// SVM learning (seeded by GroupParams where set) and feedback kernel
// learning. It may be called repeatedly; each call trains from scratch.
func (p *Prepared) Train() (*Detector, error) {
	cfg := p.cfg
	d := &Detector{cfg: cfg, stats: p.stats}
	// Copy the preprocessing telemetry so repeated Train calls cannot
	// share (and clobber) one backing array.
	d.telemetry = obs.Telemetry{Stages: append([]obs.StageStats(nil), p.tel.Stages...)}
	d.telemetry.AddCounters(p.tel.Counters)
	tel := &d.telemetry
	emit := progressEmitter(cfg)

	if !cfg.EnableTopo {
		sp := obs.Begin(tel, cfg.Obs, "train.kernels")
		sp.AddItems(1)
		unit, iters, err := trainBasicKernel(p.rawHS, p.rawNHS, cfg, roundEmitter(emit, "train.kernels", 0))
		if err != nil {
			return nil, err
		}
		sp.End()
		d.kernels = append(d.kernels, unit)
		d.stats.SelfIters = iters
		return d, nil
	}

	// Train one kernel per hotspot cluster, in parallel (§III-G).
	sp := obs.Begin(tel, cfg.Obs, "train.kernels")
	// Every kernel trains against all nonhotspot centroids, so their core
	// features are extracted once here and shared; each kernel extracts
	// only its own members, which no other kernel has. This stays a local
	// so that nothing holds it once the kernel stage is done.
	centroids := extractCores(p.centroids, cfg.Workers)
	units := make([]*kernelUnit, len(p.clusters))
	iters := make([]int, len(p.clusters))
	errs := make([]error, len(p.clusters))
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(cfg.Workers, 1))
	for ci, cluster := range p.clusters {
		wg.Add(1)
		go func(ci int, cluster topo.Cluster) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			units[ci], iters[ci], errs[ci] = trainClusterKernel(cluster, p.hs[cluster.Representative],
				p.groupMembers(cluster), centroids, cfg, groupParams(cfg, ci),
				roundEmitter(emit, "train.kernels", ci))
		}(ci, cluster)
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: kernel %d: %w", ci, err)
		}
		d.kernels = append(d.kernels, units[ci])
		d.stats.SelfIters += iters[ci]
	}
	sp.AddItems(int64(len(d.kernels)))
	sp.End()

	if cfg.EnableFeedback {
		// The self-evaluation set includes shifted nonhotspot derivatives:
		// evaluation-phase extras mostly come from clip-extraction
		// alignment variability, which the shifts reproduce.
		sp = obs.Begin(tel, cfg.Obs, "train.feedback")
		d.trainFeedback(upsample(p.rawNHS, cfg.ShiftNM), cfg, roundEmitter(emit, "train.feedback", -1))
		sp.AddItems(int64(d.stats.FeedbackExtras))
		sp.End()
	}
	d.telemetry.AddCounter("train.self_iters", int64(d.stats.SelfIters))
	return d, nil
}

// groupRows builds one topology group's labelled dataset in ex's slot
// layout and returns the scaled rows, the +1/-1 labels, and the scaler.
// The member hotspots are extracted here; the centroids come extracted
// (extractCores), since every group shares them.
func groupRows(ex *features.Extractor, members []*clip.Pattern, centroids []features.Extracted) ([][]float64, []int, *svm.Scaler) {
	rows := make([][]float64, 0, len(members)+len(centroids))
	labels := make([]int, 0, len(members)+len(centroids))
	for _, p := range members {
		rows = append(rows, ex.Vector(p.CoreRects(), p.Core))
		labels = append(labels, +1)
	}
	for _, c := range centroids {
		rows = append(rows, ex.VectorFrom(c))
		labels = append(labels, -1)
	}
	sc := svm.FitScaler(rows)
	return sc.ApplyAll(rows), labels, sc
}

// extractCores extracts each pattern's core-region features across up to
// workers goroutines, in pattern order.
func extractCores(ps []*clip.Pattern, workers int) []features.Extracted {
	out := make([]features.Extracted, len(ps))
	parallelFor(len(ps), workers, func(i int) {
		out[i] = features.ExtractAll(ps[i].CoreRects(), ps[i].Core)
	})
	return out
}

// basicRows builds the Basic baseline's direct-feature dataset.
func basicRows(hs, nhs []*clip.Pattern, slots int) ([][]float64, []int, *svm.Scaler) {
	rows := make([][]float64, 0, len(hs)+len(nhs))
	labels := make([]int, 0, len(hs)+len(nhs))
	for _, p := range hs {
		rows = append(rows, features.VectorDirect(p.CoreRects(), p.Core, slots))
		labels = append(labels, +1)
	}
	for _, p := range nhs {
		rows = append(rows, features.VectorDirect(p.CoreRects(), p.Core, slots))
		labels = append(labels, -1)
	}
	sc := svm.FitScaler(rows)
	return sc.ApplyAll(rows), labels, sc
}
