// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload on seeded MX_benchmark3 inputs for a fixed measuring time,
// checks every op's output, and prints one JSON result line:
//
//	bash e2ebench/run.sh --workload scan-b3 --seed 1 --seconds 25 --trace 0
//
// from the repository root (run.sh builds this command with every cache
// under .bench_build). Each op runs in a fresh child process, so it starts
// from a freshly loaded detector with a cold verdict memo and cold scratch
// pools, as every CLI invocation does. With --trace 0 the result holds the
// end-to-end metrics declared in BENCHMARK.json; with --trace 1 a traced op
// follows the timed ones and the result holds the per-layer metrics.
// The harness only calls exported functions of the program and reads the
// counters, telemetry, progress events and pprof labels it already has.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"

	"hotspot/internal/bundle"
	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/geom"
)

// workload is one set of inputs and the op run on them.
type workload struct {
	name  string
	needs need
	op    func(fx fixtures, work string, traced bool) (opResult, error)
}

// The workloads and why each is in the benchmark:
//   - train-b3: training is the system's largest cost, and at this size the
//     serial feedback-kernel SMO solve is its largest stage, as at full
//     scale. It never reaches extraction, tiling, removal or the store.
//   - scan-b3: chip-scale detection is what users run; extraction, MTCG
//     features, SVM plus feedback evaluation, tiling and removal do nearly
//     all of its work, and it does no SMO.
//   - rescan-eco: an ECO loop, where store reads for clean tiles, appends
//     for the few dirty ones and the whole-chip RemoveRedundant do most of
//     the work and extraction and evaluation almost nothing.
var workloads = []workload{
	{name: "train-b3", needs: needCorpus, op: trainOp},
	{name: "scan-b3", needs: needDetect, op: scanOp},
	{name: "rescan-eco", needs: needStore, op: rescanOp},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("e2ebench: ")
	name := flag.String("workload", "", "workload: train-b3, scan-b3 or rescan-eco")
	seed := flag.Int64("seed", 1, "seed of the generated layout and edit sequence")
	seconds := flag.Float64("seconds", 20, "measuring time; ops start until it is spent, at least one")
	trace := flag.Int("trace", 0, "1: add a traced op and print the per-layer metrics")
	child := flag.Bool("child", false, "internal: run one op in this process and print its opResult")
	root := flag.String("fixtures", "", "internal: fixture root of a -child op")
	work := flag.String("work", "", "internal: scratch directory of a -child op")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *child {
		r, err := w.op(fixturePaths(*root, *seed), *work, *trace == 1)
		if err != nil {
			log.Fatalf("%s op: %v", w.name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(w, *seed, *seconds, *trace == 1); err != nil {
		log.Fatal(err)
	}
}

// buildDir holds everything the benchmark writes in the checkout.
const buildDir = ".bench_build"

// reference is what the parent checks each op against and scores its
// report with.
type reference struct {
	needs  need
	digest string // train-b3: the fixture model's digest
	want   []byte // scan-b3: Detect's report; rescan-eco: the cold scan of the final layout
	truth  []geom.Rect
	area   int64
	spec   clip.Spec
	traced bool
}

func run(w *workload, seed int64, seconds float64, traced bool) error {
	root, err := fixtureRoot(buildDir)
	if err != nil {
		return err
	}
	fx, err := buildFixtures(root, seed, w.needs)
	if err != nil {
		return err
	}
	ref, err := loadReference(w, fx)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	steal0, total0, _ := cpuTicks()
	attempted, failed := 0, 0
	var timed []opResult
	start := time.Now()
	for attempted == 0 || time.Since(start).Seconds() < seconds {
		attempted++
		r, err := runOp(w, root, seed, work, false)
		if err == nil {
			err = ref.check(r)
		}
		if err != nil {
			failed++
			log.Printf("%s op %d failed: %v", w.name, attempted, err)
			continue
		}
		log.Printf("%s op %d: setup %.4fs wall %.3fs cpu %.3fs heap %.1fMB", w.name, attempted, r.Setup, r.Wall, r.CPU, r.PeakMB)
		timed = append(timed, r)
	}

	var tr *opResult
	if traced {
		attempted++
		ref.traced = true
		r, err := runOp(w, root, seed, work, true)
		if err == nil {
			err = ref.check(r)
		}
		if err != nil {
			failed++
			log.Printf("%s traced op failed: %v", w.name, err)
		} else {
			tr = &r
		}
	}
	steal1, total1, _ := cpuTicks()

	cond, err := json.Marshal(hostConditions(stealShare(steal0, total0, steal1, total1)))
	if err != nil {
		return err
	}
	fmt.Printf("conditions %s\n", cond)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	values := endToEndValues(timed, ref)
	if traced {
		values = perLayerValues(tr, timed)
	}
	for _, m := range metricsFor(traced) {
		res.Metrics[m.name] = value{values[m.name], m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	return nil
}

// runOp runs one op of w in a child process.
func runOp(w *workload, root string, seed int64, work string, traced bool) (opResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return opResult{}, err
	}
	dir, err := os.MkdirTemp(work, "op-")
	if err != nil {
		return opResult{}, err
	}
	defer os.RemoveAll(dir)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", trace, "-fixtures", root, "-work", dir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return opResult{}, err
	}
	var r opResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return opResult{}, fmt.Errorf("op output: %w", err)
	}
	return r, nil
}

func loadReference(w *workload, fx fixtures) (*reference, error) {
	ref := &reference{needs: w.needs}
	scored := fx.layout
	var err error
	switch w.needs {
	case needCorpus:
		var digest []byte
		digest, err = os.ReadFile(filepath.Join(fx.corpus, digestFile))
		ref.digest, scored = string(digest), fx.corpus
	case needDetect:
		ref.want, err = os.ReadFile(filepath.Join(fx.detect, detectFile))
	case needStore:
		ref.want, err = os.ReadFile(filepath.Join(fx.eco, finalFile))
	}
	if err != nil {
		return nil, err
	}
	b, err := bundle.Load(scored)
	if err != nil {
		return nil, err
	}
	ref.truth, ref.area, ref.spec = b.Truth, b.Test.Area(), b.Spec()
	return ref, nil
}

// check returns why an op's output is wrong, nil when it is right.
func (ref *reference) check(r opResult) error {
	switch ref.needs {
	case needCorpus:
		if r.Digest != ref.digest {
			return fmt.Errorf("model digest %.12s, want the fixture model's %.12s", r.Digest, ref.digest)
		}
	case needDetect:
		if ref.traced && (r.Replay == nil || r.Replay.Candidates != r.Report.Candidates ||
			!reflect.DeepEqual(r.Replay.Hotspots, r.Report.Hotspots)) {
			return errors.New("replayed hotspots differ from the scan's")
		}
	case needStore:
		if len(r.Dirty) != ecoEdits {
			return fmt.Errorf("%d edits re-scanned, want %d", len(r.Dirty), ecoEdits)
		}
		for i, d := range r.Dirty {
			if d == 0 {
				return fmt.Errorf("edit %d dirtied no tile", i)
			}
		}
	}
	if ref.want != nil && !bytes.Equal(r.Report.bytes(), ref.want) {
		return errors.New("report differs from the reference")
	}
	if ref.traced && r.Layers == nil {
		return errors.New("traced op reported no layers")
	}
	for name := range r.Layers {
		if !declared(name) {
			return fmt.Errorf("traced op reported undeclared metric %s", name)
		}
	}
	return nil
}

func declared(name string) bool {
	for _, m := range perLayer {
		if m.name == name {
			return true
		}
	}
	return false
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// endToEndValues takes each metric's median over the run's checked ops.
func endToEndValues(timed []opResult, ref *reference) map[string]float64 {
	col := func(f func(r opResult) float64) float64 {
		vs := make([]float64, len(timed))
		for i, r := range timed {
			vs[i] = f(r)
		}
		return median(vs)
	}
	score := func(r opResult) core.Score {
		return core.EvaluateReport(r.Report.Hotspots, ref.truth, ref.area, ref.spec)
	}
	return map[string]float64{
		"setup_s":      col(func(r opResult) float64 { return r.Setup }),
		"wall_s":       col(func(r opResult) float64 { return r.Wall }),
		"cpu_s":        col(func(r opResult) float64 { return r.CPU }),
		"peak_heap_mb": col(func(r opResult) float64 { return r.PeakMB }),
		"hits":         col(func(r opResult) float64 { return float64(score(r).Hits) }),
		"extras":       col(func(r opResult) float64 { return float64(score(r).Extras) }),
	}
}

// perLayerValues reads the traced op's layers; a layer the workload never
// reaches reads 0.
func perLayerValues(tr *opResult, timed []opResult) map[string]float64 {
	out := map[string]float64{}
	if tr == nil {
		return out
	}
	for k, v := range tr.Layers {
		out[k] = v
	}
	walls := make([]float64, len(timed))
	for i, r := range timed {
		walls[i] = r.Wall
	}
	out["trace.wall_s"] = tr.Wall
	if len(walls) > 0 {
		out["trace.overhead_s"] = tr.Wall - median(walls)
	}
	return out
}

// median of vs (0 when empty); vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
