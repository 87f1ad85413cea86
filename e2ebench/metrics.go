package main

// metric declares one number the benchmark prints. BENCHMARK.json repeats
// name, unit and better (TestMetricsMatchBenchmarkJSON keeps the two in
// step); the layer, source and moves columns live only here.
type metric struct {
	name, unit, better string
	// layers names the modules under internal/ whose work the metric
	// measures; source says how the harness reads it without adding
	// tracing inside the program; moves names the end-to-end metric and
	// workload a change in this number should move.
	layers, source, moves string
}

// endToEnd are printed by every run with -trace 0: what a user of the
// detector sees, with tracing off.
var endToEnd = []metric{
	{"setup_s", "s", "lower", "core gds clip", "median of repeated decodes in each op's process: the clip set (train-b3) or the model JSON plus the GDS parse (scan-b3, rescan-eco; rescan-eco also flattens)", "-"},
	{"wall_s", "s", "lower", "all measured", "wall time of the op", "-"},
	{"cpu_s", "s", "lower", "all measured", "process user+sys CPU over the op (getrusage); stands in for the serial ours_nopara cost", "-"},
	{"peak_heap_mb", "MB", "lower", "all measured", "95th percentile of the live heap after each GC cycle of the op (runtime/metrics /gc/heap/live:bytes); see meter", "-"},
	{"hits", "count", "higher", "core", "core.EvaluateReport #hit of the op's report against the generated truth", "-"},
	{"extras", "count", "lower", "core", "core.EvaluateReport #extra of the op's report", "-"},
}

// perLayer are printed by every run with -trace 1, from one traced op
// made after the timed ops. A workload that never reaches a layer prints
// that layer's numbers as 0, which is what it measured.
var perLayer = []metric{
	{"core.prepare_s", "s", "lower", "core topo", "span around core.Prepare", "train-b3 wall_s, cpu_s"},
	{"core.fit_s", "s", "lower", "core svm", "span around Prepared.Train", "train-b3 wall_s"},
	{"train.kernels_s", "s", "lower", "core svm", "Detector.Telemetry() stage train.kernels", "train-b3 wall_s"},
	{"train.feedback_s", "s", "lower", "core svm", "Detector.Telemetry() stage train.feedback (the serial critical path)", "train-b3 wall_s"},
	{"train.feedback_rounds", "count", "lower", "core", "train.feedback Config.Progress events (C/gamma doubling rounds)", "train-b3 wall_s"},
	{"svm.smo_iterations", "count", "lower", "svm", "obs counter svm.smo_iterations", "train-b3 cpu_s, wall_s"},
	{"svm.trainings", "count", "lower", "svm", "obs counter svm.trainings", "train-b3 cpu_s"},
	{"svm.kernel_cache_misses", "count", "lower", "svm", "obs counter svm.kernel_cache_misses", "train-b3 cpu_s"},
	{"svm.train_max_s", "s", "lower", "svm", "max of obs histogram svm.train_seconds (the slowest single solve)", "train-b3 wall_s"},
	{"svm.support_vectors", "count", "lower", "svm", "obs counter svm.support_vectors", "scan-b3 cpu_s, wall_s"},
	{"core.model_bytes", "B", "lower", "core svm", "size of the model Detector.Save wrote", "scan-b3 and rescan-eco setup_s"},
	{"gds.parse_s", "s", "lower", "gds", "span around gds.Parse", "scan-b3 and rescan-eco setup_s"},
	{"core.load_s", "s", "lower", "core", "span around core.Load", "scan-b3 and rescan-eco setup_s"},
	{"gds.flatten_s", "s", "lower", "gds layout", "span around layout.FromGDS", "scan-b3 wall_s"},
	{"clip.extract_s", "s", "lower", "clip", "span around clip.ExtractParallelObs", "scan-b3 wall_s"},
	{"clip.candidates", "count", "lower", "clip", "candidates clip.ExtractParallelObs returned", "scan-b3 wall_s"},
	{"clip.build_s", "s", "lower", "clip", "span around clip.FromLayoutInto over all candidates", "scan-b3 wall_s"},
	{"core.classify_s", "s", "lower", "core topo features mtcg svm simd", "span around Detector.ClassifyBatch", "scan-b3 wall_s, cpu_s"},
	{"eval.cpu_classify_s", "s", "lower", "topo", "CPU profile samples of a traced ScanGDSContext labelled stage=classify", "scan-b3 cpu_s"},
	{"eval.cpu_extract_s", "s", "lower", "features mtcg", "CPU profile samples labelled stage=extract", "scan-b3 cpu_s"},
	{"eval.cpu_svm_s", "s", "lower", "svm simd", "CPU profile samples labelled stage=svm", "scan-b3 cpu_s"},
	{"eval.cpu_feedback_s", "s", "lower", "features mtcg svm", "CPU profile samples labelled stage=feedback", "scan-b3 cpu_s"},
	{"eval.memo_hit_ratio", "ratio", "higher", "core", "obs counters eval.memo_hits / (eval.memo_hits + eval.memo_misses)", "scan-b3 cpu_s"},
	{"eval.prescreen_rejects", "count", "higher", "core", "obs counter eval.prescreen_rejects", "none: 0 shows the envelope is idle"},
	{"detect.flagged", "count", "lower", "core", "Report.Flagged of the traced scan", "scan-b3 hits, extras"},
	{"detect.reclaimed", "count", "higher", "core", "Report.Reclaimed of the traced scan", "scan-b3 hits, extras"},
	{"core.removal_s", "s", "lower", "core", "span around core.RemoveRedundant", "scan-b3 wall_s"},
	{"scan.tiles_total", "count", "lower", "scan", "ScanStats.TilesTotal of the traced scan", "scan-b3 wall_s"},
	{"scan.tile_p50_s", "s", "lower", "scan", "p50 of obs histogram scan.tile_seconds", "scan-b3 wall_s"},
	{"scan.tile_max_s", "s", "lower", "scan", "max of obs histogram scan.tile_seconds (the tail on 2 workers)", "scan-b3 wall_s"},
	{"scan.parallel_efficiency", "ratio", "higher", "scan", "cpu_s / (wall_s x GOMAXPROCS) of the traced scan", "scan-b3 wall_s"},
	{"store.open_s", "s", "lower", "scan", "spans around Detector.OpenStore, summed over the edits", "rescan-eco wall_s"},
	{"store.bytes", "B", "lower", "scan", "tile store file size after the last edit", "rescan-eco wall_s"},
	{"scan.tiles_dirty", "count", "lower", "scan", "ScanStats.TilesDirty summed over the edits", "rescan-eco wall_s"},
	{"store.hit_ratio", "ratio", "higher", "scan", "store hits / (hits + misses) over the edits", "rescan-eco wall_s"},
	{"rescan.tiles_s", "s", "lower", "scan core", "Report.Telemetry stage scan.tiles summed over the edits", "rescan-eco wall_s"},
	{"rescan.removal_s", "s", "lower", "core", "Report.Telemetry stage detect.removal summed over the edits", "rescan-eco wall_s"},
	{"rescan.edit_p50_s", "s", "lower", "scan core", "median of the per-edit spans", "rescan-eco wall_s"},
	{"rescan.edit_max_s", "s", "lower", "scan core", "largest per-edit span", "rescan-eco wall_s"},
	{"trace.wall_s", "s", "lower", "all measured", "wall time of the traced op", "-"},
	{"trace.overhead_s", "s", "lower", "all measured", "trace.wall_s minus the median wall_s of the run's timed ops", "-"},
	{"trace.span_coverage", "ratio", "higher", "all measured", "share of the traced op's wall time covered by the harness spans or, inside one call, the program's own Report.Telemetry stages", "-"},
}

// metricsFor returns the declarations a run prints.
func metricsFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
