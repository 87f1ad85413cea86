// Command hotspot is the command-line front end of the hotspot-detection
// framework:
//
//	hotspot gen     -bench MX_benchmark1 -scale 0.5 -out bench1.gds
//	hotspot stats   -bench MX_benchmark1 -scale 0.5
//	hotspot train   -bench MX_benchmark1 -scale 0.5 -out model.json
//	hotspot detect  -bench MX_benchmark1 -scale 0.5 [-basic] [-bias 0.35] [-model model.json]
//	hotspot scan    -bench MX_benchmark1 -tile 16000 -store scan.store [-incremental]
//	hotspot serve   -model model.json -addr :8080
//	hotspot bench   -table 3 -scale 0.25      (or -fig 15)
//	hotspot gdsinfo layout.gds
//
// All benchmarks are generated deterministically; -scale shrinks the
// layout extents linearly (counts shrink with area) so full pipelines run
// in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "scan":
		err = cmdScan(os.Args[2:])
	case "render":
		err = cmdRender(os.Args[2:])
	case "drc":
		err = cmdDRC(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "gdsinfo":
		err = cmdGDSInfo(os.Args[2:])
	case "simd":
		err = cmdSIMD(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "hotspot: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotspot: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hotspot <command> [flags]

commands:
  gen      generate a benchmark and write its testing layout as GDSII
  stats    print a benchmark's Table I statistics row
  train    train the framework on a benchmark and save the model as JSON
  detect   train (or load) the framework and evaluate a testing layout
  scan     chip-scale tiled scan (bounded memory, resumable with -store/-incremental)
  render   run detection and write an SVG (and optional aerial heatmap)
  drc      run basic design-rule checks over a benchmark layout
  serve    run hotspotd, the HTTP/JSON inference server, on a saved model
  bench    regenerate a paper table (-table 1..5) or figure (-fig 15)
  gdsinfo  summarize a GDSII file
  simd     print the runtime-selected simd kernel dispatch`)
}

// benchFlags adds the common benchmark-selection flags.
func benchFlags(fs *flag.FlagSet) (*string, *float64, *int) {
	name := fs.String("bench", "MX_benchmark1", "benchmark name (MX_benchmark1..5, MX_blind_partial)")
	scale := fs.Float64("scale", 0.25, "linear benchmark scale (1 = paper-sized)")
	workers := fs.Int("workers", 0, "parallel workers (0 = all CPUs)")
	return name, scale, workers
}
