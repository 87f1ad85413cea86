package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hotspot/internal/bundle"
	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/experiments"
	"hotspot/internal/gds"
	"hotspot/internal/iccad"
	"hotspot/internal/train"
)

func generate(name string, scale float64, workers int) (*iccad.Benchmark, error) {
	cfg, ok := iccad.ConfigByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	cfg.Scale = scale
	cfg.Workers = workers
	return iccad.Generate(cfg), nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name, scale, workers := benchFlags(fs)
	out := fs.String("out", "", "output GDSII path (default <bench>.gds)")
	trainOut := fs.String("train", "", "also write the labelled training clip set as JSON")
	bundleDir := fs.String("bundle", "", "write a full bundle directory (layout + train + truth + meta)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := generate(*name, *scale, *workers)
	if err != nil {
		return err
	}
	if *bundleDir != "" {
		if err := bundle.Save(*bundleDir, b); err != nil {
			return err
		}
		fmt.Printf("wrote bundle %s: %d rects, %d training clips, %d truth cores\n",
			*bundleDir, b.Test.NumRects(), len(b.Train), len(b.TruthCores))
		if *out == "" && *trainOut == "" {
			return nil
		}
	}
	path := *out
	if path == "" {
		path = *name + ".gds"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lib := b.Test.ToGDS("TOP")
	if err := lib.Write(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d rectangles, %d ground-truth hotspots\n",
		path, b.Test.NumRects(), len(b.TruthCores))
	if *trainOut != "" {
		tf, err := os.Create(*trainOut)
		if err != nil {
			return err
		}
		defer tf.Close()
		if err := clip.WriteSet(tf, b.Train); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d training clips\n", *trainOut, len(b.Train))
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	name, scale, workers := benchFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, err := generate(*name, *scale, *workers)
	if err != nil {
		return err
	}
	fmt.Println(b.Stats())
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	name, scale, workers := benchFlags(fs)
	out := fs.String("out", "model.json", "output model path")
	cv := fs.Bool("cv", false, "cross-validated per-group hyperparameter search before training")
	grid := fs.String("grid", "", `search grid, e.g. "c=100,1000;gamma=0.005,0.01" (default: built-in lattice)`)
	folds := fs.Int("folds", 4, "cross-validation folds (with -cv)")
	seed := fs.Int64("seed", 42, "fold-assignment / candidate-sampling seed (with -cv)")
	random := fs.Int("random", 0, "sample N random candidates instead of the full grid (with -cv)")
	noHalving := fs.Bool("nohalving", false, "disable successive-halving pruning: score every candidate on every fold")
	stats, verbose, debugAddr := obsFlags(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	b, err := generate(*name, *scale, *workers)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if *workers > 0 {
		cfg.Workers = *workers
	}
	reg, progress, err := obsSetup(*stats, *verbose, *debugAddr)
	if err != nil {
		return err
	}
	cfg.Obs = reg
	cfg.Progress = progress
	t0 := time.Now()
	var det *core.Detector
	if *cv {
		g, err := train.ParseGrid(*grid)
		if err != nil {
			return err
		}
		res, err := train.CrossValidate(b.Train, cfg, train.Options{
			Folds:     *folds,
			Seed:      *seed,
			Workers:   cfg.Workers,
			Grid:      g,
			Random:    *random,
			NoHalving: *noHalving,
			Obs:       reg,
			Progress:  progress,
		})
		if err != nil {
			return err
		}
		det = res.Detector
		printSelection(res)
	} else {
		det, err = core.Train(b.Train, cfg)
		if err != nil {
			return err
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := det.Save(f); err != nil {
		return err
	}
	st := det.Stats()
	fmt.Printf("trained %d kernels in %s (hs clusters %d, nhs centroids %d); model written to %s\n",
		det.NumKernels(), time.Since(t0).Round(time.Millisecond),
		st.HotspotClusters, st.NonHotspotCentroids, *out)
	if *stats {
		tel := det.Telemetry()
		printObservability(os.Stdout, &tel, nil, reg)
	}
	return nil
}

// printSelection renders the per-group cross-validation winners.
func printSelection(res *train.Result) {
	searched := 0
	for _, g := range res.Groups {
		if g.Searched {
			searched++
		}
	}
	fmt.Printf("cv: %d candidates x %d folds, seed %d; %d/%d groups searched (the rest keep the defaults)\n",
		len(res.Candidates), res.Folds, res.Seed, searched, len(res.Groups))
	fmt.Printf("  %5s %5s %5s  %10s %10s %8s  %6s %7s %11s\n",
		"group", "#hs", "#nhs", "C", "gamma", "tol", "F1", "recall", "false-alarm")
	for _, g := range res.Groups {
		if !g.Searched {
			continue
		}
		tol := "default"
		if g.Winner.Tol > 0 {
			tol = fmt.Sprintf("%.4g", g.Winner.Tol)
		}
		fmt.Printf("  %5d %5d %5d  %10.4g %10.4g %8s  %6.4f %7.4f %11.4f\n",
			g.Group, g.Hotspots, g.Negatives, g.Winner.C, g.Winner.Gamma, tol,
			g.Metrics.F1, g.Metrics.Recall, g.Metrics.FalseAlarm)
	}
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	name, scale, workers := benchFlags(fs)
	basic := fs.Bool("basic", false, "use the single-huge-kernel Basic baseline")
	bias := fs.Float64("bias", 0, "decision-threshold bias (ours_med ~ 0.35, ours_low ~ 0.8)")
	serial := fs.Bool("nopara", false, "disable multithreading (ours_nopara)")
	model := fs.String("model", "", "load a saved model instead of training")
	bundleDir := fs.String("bundle", "", "evaluate a bundle directory instead of a generated benchmark")
	stats, verbose, debugAddr := obsFlags(fs)
	cpuProf, memProf := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()
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
	} else {
		var err error
		b, err = generate(*name, *scale, *workers)
		if err != nil {
			return err
		}
	}
	cfg := core.DefaultConfig()
	if *basic {
		cfg = core.BasicConfig()
	}
	cfg.Bias = *bias
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *serial {
		cfg.Workers = 1
	}
	reg, progress, err := obsSetup(*stats, *verbose, *debugAddr)
	if err != nil {
		return err
	}
	cfg.Obs = reg
	cfg.Progress = progress
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
		det.SetBias(*bias)
		if *serial {
			det.SetWorkers(1)
		}
		det.SetObs(reg)
	} else {
		trained, err := core.Train(b.Train, cfg)
		if err != nil {
			return err
		}
		det = trained
	}
	trainDur := time.Since(t0)
	rep := det.Detect(b.Test)
	score := core.EvaluateReport(rep.Hotspots, b.TruthCores, b.Test.Area(), b.Spec)
	score.Runtime = trainDur + rep.Runtime
	st := det.Stats()
	fmt.Printf("%s: %s\n", b.Name, score)
	fmt.Printf("  kernels=%d hs-clusters=%d nhs-centroids=%d feedback-extras=%d\n",
		det.NumKernels(), st.HotspotClusters, st.NonHotspotCentroids, st.FeedbackExtras)
	fmt.Printf("  candidates=%d flagged=%d reclaimed=%d train=%s eval=%s\n",
		rep.Candidates, rep.Flagged, rep.Reclaimed,
		trainDur.Round(time.Millisecond), rep.Runtime.Round(time.Millisecond))
	if *stats {
		tel := det.Telemetry()
		printObservability(os.Stdout, &tel, &rep.Telemetry, reg)
	}
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	table := fs.Int("table", 0, "regenerate Table 1..5")
	fig := fs.Int("fig", 0, "regenerate Fig 15")
	ablations := fs.Bool("ablations", false, "run the design-choice ablations")
	report := fs.String("report", "", "run everything and write a markdown report")
	scale := fs.Float64("scale", 0.25, "linear benchmark scale (1 = paper-sized)")
	workers := fs.Int("workers", 0, "parallel workers (0 = all CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := experiments.NewSuite(experiments.Options{Scale: *scale, Workers: *workers})
	switch {
	case *table == 1:
		return s.WriteTable1(os.Stdout)
	case *table == 2:
		return s.WriteTable2(os.Stdout)
	case *table == 3:
		return s.WriteTable3(os.Stdout)
	case *table == 4:
		return s.WriteTable4(os.Stdout)
	case *table == 5:
		return s.WriteTable5(os.Stdout)
	case *fig == 15:
		return s.WriteFig15(os.Stdout, nil)
	case *report != "":
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.WriteMarkdownReport(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *report)
		return nil
	case *ablations:
		return s.WriteAblations(os.Stdout)
	default:
		return fmt.Errorf("specify -table 1..5, -fig 15, -ablations, or -report FILE")
	}
}

func cmdGDSInfo(args []string) error {
	fs := flag.NewFlagSet("gdsinfo", flag.ExitOnError)
	dump := fs.Bool("dump", false, "dump the full record stream as text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: hotspot gdsinfo [-dump] FILE")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	if *dump {
		return gds.Dump(f, os.Stdout)
	}
	lib, err := gds.Parse(f)
	if err != nil {
		return err
	}
	fmt.Printf("library %q (1 dbu = %.3g m)\n", lib.Name, lib.MeterUnit)
	for _, s := range lib.Structures {
		fmt.Printf("  structure %q: %d boundaries, %d paths, %d srefs, %d arefs\n",
			s.Name, len(s.Boundaries), len(s.Paths), len(s.SRefs), len(s.ARefs))
	}
	return nil
}
