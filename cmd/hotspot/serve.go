package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hotspot/internal/core"
	"hotspot/internal/obs"
	"hotspot/internal/server"
)

// cmdServe runs hotspotd: the long-running inference server. The model
// comes from -model (a file written by `hotspot train -out`) or, for
// demos, is trained at startup from a generated benchmark with -bench.
// SIGINT/SIGTERM begins a graceful drain: readiness flips to 503, the
// listener closes, and in-flight requests get -drain to finish.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	model := fs.String("model", "", "persisted model to serve (from `hotspot train -out`)")
	benchName := fs.String("bench", "", "train on a generated benchmark at startup instead of loading -model")
	scale := fs.Float64("scale", 0.25, "benchmark scale for -bench")
	workers := fs.Int("workers", 0, "classification workers (0 = all CPUs)")
	queue := fs.Int("queue", 0, "pending-clip queue bound; full = 429 (0 = 1024)")
	batch := fs.Int("batch", 0, "max clips coalesced per worker wakeup (0 = 32)")
	batchWait := fs.Duration("batch-wait", 0, "how long a worker waits to fill a batch (0 = 2ms)")
	timeout := fs.Duration("timeout", 0, "per-request deadline ceiling (0 = 30s)")
	drain := fs.Duration("drain", 0, "graceful-shutdown drain budget (0 = 15s)")
	scans := fs.Int("scans", 0, "concurrent /v1/scan limit (0 = 2)")
	storePath := fs.String("store", "", "persistent tile result store for incremental /v1/scan re-scans")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.Config{
		Addr:            *addr,
		ModelPath:       *model,
		Workers:         *workers,
		QueueSize:       *queue,
		BatchSize:       *batch,
		BatchWait:       *batchWait,
		RequestTimeout:  *timeout,
		DrainTimeout:    *drain,
		ScanConcurrency: *scans,
		StorePath:       *storePath,
		Obs:             obs.NewRegistry(),
	}

	var srv *server.Server
	switch {
	case *model != "":
		s, err := server.New(cfg)
		if err != nil {
			return err
		}
		srv = s
	case *benchName != "":
		b, err := generate(*benchName, *scale, *workers)
		if err != nil {
			return err
		}
		tcfg := core.DefaultConfig()
		if *workers > 0 {
			tcfg.Workers = *workers
		}
		t0 := time.Now()
		det, err := core.Train(b.Train, tcfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hotspotd: trained %d kernels on %s in %s\n",
			det.NumKernels(), *benchName, time.Since(t0).Round(time.Millisecond))
		s, err := server.NewWithDetector(det, cfg)
		if err != nil {
			return err
		}
		srv = s
	default:
		return fmt.Errorf("serve: -model FILE or -bench NAME is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "hotspotd: listening on %s (POST /v1/detect, /v1/scan, /v1/reload; GET /healthz, /readyz, /debug/)\n", *addr)
	err := srv.ListenAndServe(ctx)
	if err == nil {
		fmt.Fprintln(os.Stderr, "hotspotd: drained cleanly")
	}
	return err
}
