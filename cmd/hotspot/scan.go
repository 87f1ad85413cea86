package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hotspot/internal/bundle"
	"hotspot/internal/core"
	"hotspot/internal/dist"
	"hotspot/internal/gds"
	"hotspot/internal/geom"
	"hotspot/internal/iccad"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
)

// cmdScan runs the chip-scale tiled scan pipeline: the layout is cut into
// halo-overlapped tiles, tiles are extracted and classified by a
// work-stealing worker pool under a per-tile memory budget, and seams are
// deduplicated so the result matches the monolithic `hotspot detect`
// exactly. With -store, completed tiles are written to the tile result
// store as they finish, so an interrupted scan (Ctrl-C) picks up where it
// left off when re-run with -store and -incremental.
func cmdScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	name, scale, workers := benchFlags(fs)
	gdsPath := fs.String("gds", "", "scan a GDSII file (flattened per tile) instead of a benchmark")
	top := fs.String("top", "", "top structure for -gds (default: the sole unreferenced structure)")
	bundleDir := fs.String("bundle", "", "scan a bundle directory's testing layout")
	model := fs.String("model", "", "load a saved model instead of training on the benchmark")
	tile := fs.Int("tile", 0, "tile side in dbu (0 = 8x the clip side; min = core side)")
	mem := fs.Int64("mem", 0, "per-tile memory budget in bytes (0 = 64 MiB, negative = unbounded)")
	storePath := fs.String("store", "", "persistent tile result store; tiles (or shards, with -backends) are written here keyed by content as they finish, so -incremental resumes an interrupted scan")
	incremental := fs.Bool("incremental", false, "reuse compatible -store entries: evaluate only tiles whose geometry or model changed")
	backends := fs.String("backends", "", "comma-separated hotspotd backends (host:port) for a distributed scan")
	shardCount := fs.Int("shards", 0, "shard count for -backends (0 = 4 per backend)")
	shardDeadline := fs.Duration("shard-deadline", 0, "per-shard attempt deadline for -backends (0 = 5m)")
	retries := fs.Int("retries", 0, "transient-failure retries per shard before failover (0 = 3)")
	reportOut := fs.String("report", "", "write the normalized report (runtime-free JSON) to this file")
	stats, verbose, debugAddr := obsFlags(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *incremental && *storePath == "" {
		return fmt.Errorf("-incremental requires -store")
	}
	if *gdsPath != "" && *model == "" {
		return fmt.Errorf("-gds has no training clips; supply a trained model with -model")
	}
	if *backends != "" && *gdsPath != "" {
		return fmt.Errorf("-backends shards an in-memory layout (benchmark or -bundle); it does not combine with -gds")
	}

	reg, progress, err := obsSetup(*stats, *verbose, *debugAddr)
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	// Runs on every return path, including the cooperative Ctrl-C exit
	// (the signal cancels the context; the scan returns normally).
	defer stopProf()

	// Benchmark or bundle input (also the training source when no -model).
	var b *iccad.Benchmark
	if *bundleDir != "" {
		bd, err := bundle.Load(*bundleDir)
		if err != nil {
			return err
		}
		b = &iccad.Benchmark{
			Name:       bd.Meta.Name,
			Process:    bd.Meta.Process,
			Spec:       bd.Spec(),
			Layer:      bd.Meta.Layer,
			Train:      bd.Train,
			Test:       bd.Test,
			TruthCores: bd.Truth,
		}
	} else if *gdsPath == "" {
		b, err = generate(*name, *scale, *workers)
		if err != nil {
			return err
		}
	}

	t0 := time.Now()
	var det *core.Detector
	if *model != "" {
		f, err := os.Open(*model)
		if err != nil {
			return err
		}
		det, err = core.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		det.SetObs(reg)
	} else {
		cfg := core.DefaultConfig()
		if *workers > 0 {
			cfg.Workers = *workers
		}
		cfg.Obs = reg
		cfg.Progress = progress
		det, err = core.Train(b.Train, cfg)
		if err != nil {
			return err
		}
	}
	trainDur := time.Since(t0)

	// The store is keyed under the model digest: without -incremental a
	// compatible store is wiped and rebuilt; with it, entries whose content
	// key still matches are spliced into the report without re-evaluating
	// the tile — which is also how an interrupted scan resumes.
	var store *scan.Store
	if *storePath != "" {
		store, err = scan.OpenStore(*storePath, det.ModelDigest(), *incremental)
		if err != nil {
			return err
		}
		defer store.Close()
	}

	opts := core.ScanOptions{
		Tile:         geom.Coord(*tile),
		Workers:      *workers,
		TileMemBytes: *mem,
		Store:        store,
	}

	// Ctrl-C / SIGTERM cancels the scan cooperatively: in-flight tiles
	// finish, completed tiles are already in the store (with -store), and
	// the partial report is printed with a resume hint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *backends != "" {
		dopts := dist.Options{
			Backends:     splitBackends(*backends),
			Shards:       *shardCount,
			Tile:         geom.Coord(*tile),
			ShardTimeout: *shardDeadline,
			Retries:      *retries,
			LocalWorkers: *workers,
			Obs:          reg,
			Store:        store,
		}
		rep, dst, err := dist.Scan(ctx, det, b.Test, dopts)
		fmt.Printf("shards: %d/%d done (%d cached, %d remote, %d local, %d empty; %d retries, %d redispatches)\n",
			dst.ShardsDone, dst.Shards, dst.ShardsCached, dst.ShardsRemote,
			dst.ShardsLocal, dst.ShardsEmpty, dst.Retries, dst.Redispatches)
		for _, bs := range dst.Backends {
			state := "up"
			if bs.Down {
				state = "down"
			}
			fmt.Printf("backend %s: %d shards, %d failures, %s\n", bs.Addr, bs.Shards, bs.Failures, state)
		}
		return finishScanReport(rep, dst.Tiles, err, b, det, trainDur, *storePath, *stats, reg, *reportOut)
	}

	var rep core.Report
	var st core.ScanStats
	if *gdsPath != "" {
		f, err := os.Open(*gdsPath)
		if err != nil {
			return err
		}
		lib, err := gds.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		topName := *top
		if topName == "" {
			if topName, err = soleTop(lib); err != nil {
				return err
			}
		}
		rep, st, err = det.ScanGDSContext(ctx, lib, topName, opts)
		return finishScanReport(rep, st, err, b, det, trainDur, *storePath, *stats, reg, *reportOut)
	}
	rep, st, err = det.ScanTiledContext(ctx, b.Test, opts)
	return finishScanReport(rep, st, err, b, det, trainDur, *storePath, *stats, reg, *reportOut)
}

// finishScanReport is finishScan plus the optional -report artifact (only
// written for a completed scan: a partial report diffs as a false alarm).
func finishScanReport(rep core.Report, st core.ScanStats, err error, b *iccad.Benchmark,
	det *core.Detector, trainDur time.Duration, storePath string, stats bool, reg *obs.Registry, reportOut string) error {
	if ferr := finishScan(rep, st, err, b, det, trainDur, storePath, stats, reg); ferr != nil {
		return ferr
	}
	if err == nil && reportOut != "" {
		return writeReportFile(reportOut, rep)
	}
	return nil
}

// writeReportFile writes the report's deterministic core — counts and
// hotspot cores, no runtime or telemetry — so two scans of the same
// layout (local or distributed, any shard count) diff byte-for-byte.
func writeReportFile(path string, rep core.Report) error {
	norm := struct {
		Candidates int         `json:"candidates"`
		Flagged    int         `json:"flagged"`
		Reclaimed  int         `json:"reclaimed"`
		Hotspots   []geom.Rect `json:"hotspots"`
	}{rep.Candidates, rep.Flagged, rep.Reclaimed, rep.Hotspots}
	data, err := json.MarshalIndent(norm, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// splitBackends parses the -backends list, tolerating stray whitespace
// and empty elements.
func splitBackends(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// finishScan prints the scan outcome. An interruption with a store on disk
// is a clean exit (the stored tiles are the product); without one it is an
// error.
func finishScan(rep core.Report, st core.ScanStats, err error, b *iccad.Benchmark,
	det *core.Detector, trainDur time.Duration, storePath string, stats bool, reg *obs.Registry) error {
	interrupted := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	if err != nil && !interrupted {
		return err
	}
	fmt.Printf("tiles: %d/%d done (%d cached, %d dirty, %d split)\n",
		st.TilesDone, st.TilesTotal, st.TilesCached, st.TilesDirty, st.TilesSplit)
	fmt.Printf("candidates=%d flagged=%d reclaimed=%d hotspots=%d train=%s scan=%s\n",
		rep.Candidates, rep.Flagged, rep.Reclaimed, len(rep.Hotspots),
		trainDur.Round(time.Millisecond), rep.Runtime.Round(time.Millisecond))
	if interrupted {
		if storePath != "" {
			fmt.Printf("interrupted: %v; re-run with -store %s -incremental to continue\n", err, storePath)
			return nil
		}
		return err
	}
	if b != nil && len(b.TruthCores) > 0 {
		score := core.EvaluateReport(rep.Hotspots, b.TruthCores, b.Test.Area(), b.Spec)
		score.Runtime = trainDur + rep.Runtime
		fmt.Printf("%s: %s\n", b.Name, score)
	}
	if stats {
		tel := det.Telemetry()
		printObservability(os.Stdout, &tel, &rep.Telemetry, reg)
	}
	return nil
}

// soleTop returns the library's single unreferenced structure, the natural
// default top for a well-formed hierarchy.
func soleTop(lib *gds.Library) (string, error) {
	referenced := map[string]bool{}
	for _, s := range lib.Structures {
		for _, r := range s.SRefs {
			referenced[r.Name] = true
		}
		for _, r := range s.ARefs {
			referenced[r.Name] = true
		}
	}
	var tops []string
	for _, s := range lib.Structures {
		if !referenced[s.Name] {
			tops = append(tops, s.Name)
		}
	}
	if len(tops) != 1 {
		return "", fmt.Errorf("%d top-level structures %v; pick one with -top", len(tops), tops)
	}
	return tops[0], nil
}
