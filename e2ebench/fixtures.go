package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"hotspot/internal/bundle"
	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/iccad"
	"hotspot/internal/layout"
)

// Workload inputs. The training corpus is MX_benchmark3's clip set at
// scale 0.12 (667 clips) and the scanned layout is its testing layout at
// scale 0.25 (4,778 rects, 13,956 candidates, 115 truth cores), both drawn
// with the suite's own seed, as the contest ships one fixed clip set and
// layout per benchmark. The seed moves the whole layout by a rigid
// translation and draws the ECO edit sequence. Drawing the clip set and
// layout per seed made the work itself vary: over five seeds, training
// took 10.6-13.7 s, the trained models gave 2,516-5,269 extras, and with
// one model the layouts gave 4,301-4,735 extras; that spread would swamp
// any bound. A translation changes every coordinate the program reads but
// not the work, because detection is translation-equivariant.
const (
	benchName   = "MX_benchmark3"
	corpusScale = 0.12
	layoutScale = 0.25
	// ecoTile is rescan-eco's tile side: 100 tiles on the 0.25 layout, so
	// one edit dirties a few percent of the chip. At the default 9-tile
	// grid one edit re-scans about as much as a cold scan.
	ecoTile = geom.Coord(9600)
	// ecoEdits is the length of one rescan-eco op's edit sequence. Edits
	// dirty one to four tiles of unequal cost; over 8 edits the op's heap
	// moved 8.7-10.2 MB between seeds, so 16 average that out.
	ecoEdits = 16
)

// File names inside the fixture directories, next to a bundle's files.
const (
	modelFile  = "model.json"
	digestFile = "digest"
	detectFile = "detect.json"
	storeFile  = "store.jsonl"
	finalFile  = "final.json"
)

// normReport is a report's deterministic part: what two runs of the same
// model on the same layout must agree on byte for byte.
type normReport struct {
	Candidates int         `json:"candidates"`
	Flagged    int         `json:"flagged"`
	Reclaimed  int         `json:"reclaimed"`
	Hotspots   []geom.Rect `json:"hotspots"`
}

func normalize(rep core.Report) normReport {
	return normReport{rep.Candidates, rep.Flagged, rep.Reclaimed, rep.Hotspots}
}

func (r normReport) bytes() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain ints and rects always marshal
	}
	return b
}

// fixtures locates the inputs of one invocation. They are built by the
// code under test, untimed, before the first op, and kept under
// .bench_build keyed by a hash of this executable (which embeds that
// code), so later invocations of the same build reuse them.
type fixtures struct {
	corpus string // bundle: train.json, plus the paired testing layout train-b3 is scored on; model.json, digest
	canon  string // bundle of the untranslated layout
	layout string // bundle of the seed's layout
	detect string // detect.json
	eco    string // warm store.jsonl and final.json
	seed   int64
}

func fixtureRoot(buildDir string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(buildDir, "fixtures", hex.EncodeToString(h.Sum(nil))[:16]), nil
}

// need says which fixtures a workload reads besides the corpus.
type need int

const (
	needCorpus need = iota // the clip set and the model trained on it
	needDetect             // the seed's layout and Detect's report on it
	needStore              // the seed's layout, the warm tile store and the cold report after the edits
)

// fixturePaths locates the fixtures of one seed under root.
func fixturePaths(root string, seed int64) fixtures {
	layout := filepath.Join(root, fmt.Sprintf("seed-%d", seed))
	return fixtures{
		corpus: filepath.Join(root, "corpus"),
		canon:  filepath.Join(root, "layout"),
		layout: layout,
		detect: layout + "-detect",
		eco:    layout + "-eco",
		seed:   seed,
	}
}

// buildFixtures makes (or finds) the fixtures a workload needs.
func buildFixtures(root string, seed int64, n need) (fixtures, error) {
	fx := fixturePaths(root, seed)
	b3, ok := iccad.ConfigByName(benchName)
	if !ok {
		return fx, fmt.Errorf("no %s in the suite", benchName)
	}
	err := ensureDir(fx.corpus, func(dir string) error {
		cfg := b3
		cfg.Scale = corpusScale
		b := iccad.Generate(cfg)
		if err := bundle.Save(dir, b); err != nil {
			return err
		}
		det, err := core.Train(b.Train, core.DefaultConfig())
		if err != nil {
			return err
		}
		if _, err := saveModel(det, filepath.Join(dir, modelFile)); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, digestFile), []byte(det.ModelDigest()), 0o644)
	})
	if err != nil || n == needCorpus {
		return fx, err
	}
	err = ensureDir(fx.canon, func(dir string) error {
		cfg := b3
		cfg.Scale = layoutScale
		// The testing layout and the clip set draw from separate random
		// streams, so dropping the clip set leaves the layout as the full
		// generation would make it.
		cfg.TrainHS, cfg.TrainNHS = 0, 0
		return bundle.Save(dir, iccad.Generate(cfg))
	})
	if err != nil {
		return fx, err
	}
	err = ensureDir(fx.layout, func(dir string) error {
		b, err := bundle.Load(fx.canon)
		if err != nil {
			return err
		}
		return bundle.Save(dir, translated(b, seed))
	})
	if err != nil {
		return fx, err
	}
	det, l, err := loadScan(fx.corpus, fx.layout)
	if err != nil {
		return fx, err
	}
	if n == needDetect {
		return fx, ensureDir(fx.detect, func(dir string) error {
			return os.WriteFile(filepath.Join(dir, detectFile), normalize(det.Detect(l)).bytes(), 0o644)
		})
	}
	return fx, ensureDir(fx.eco, func(dir string) error {
		ctx := context.Background()
		opts := core.ScanOptions{Tile: ecoTile}
		if _, _, err := det.ScanIncrementalContext(ctx, l, filepath.Join(dir, storeFile), opts); err != nil {
			return err
		}
		layer := det.Config().Layer
		edited := editedLayouts(l, layer, planEdits(l.Rects(layer), seed, ecoEdits))
		rep, _, err := det.ScanTiledContext(ctx, edited[len(edited)-1], opts)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, finalFile), normalize(rep).bytes(), 0o644)
	})
}

// translated returns the bundle's layout and truth moved by a seeded
// offset of up to 1 mm in x and y. The offsets are non-negative, so the
// layout stays in the quadrant the generator draws in.
func translated(b *bundle.Bundle, seed int64) *iccad.Benchmark {
	rng := rand.New(rand.NewSource(seed))
	dx, dy := geom.Coord(rng.Int63n(1_000_000)), geom.Coord(rng.Int63n(1_000_000))
	l := layout.New(b.Test.Name)
	for _, id := range b.Test.Layers() {
		for _, r := range b.Test.Rects(id) {
			l.AddRect(id, r.Translate(dx, dy))
		}
	}
	truth := make([]geom.Rect, len(b.Truth))
	for i, r := range b.Truth {
		truth[i] = r.Translate(dx, dy)
	}
	return &iccad.Benchmark{
		Name: b.Meta.Name, Process: b.Meta.Process, Spec: b.Spec(), Layer: b.Meta.Layer,
		Test: l, TruthCores: truth,
	}
}

// loadScan loads the corpus model and the flattened layout of a bundle.
func loadScan(corpus, dir string) (*core.Detector, *layout.Layout, error) {
	det, err := loadModel(filepath.Join(corpus, modelFile))
	if err != nil {
		return nil, nil, err
	}
	b, err := bundle.Load(dir)
	if err != nil {
		return nil, nil, err
	}
	return det, b.Test, nil
}

func loadModel(path string) (*core.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// ensureDir builds dir through build unless it exists. build writes into
// a temporary directory that is renamed into place, so an interrupted or
// concurrent invocation never leaves a half-built fixture behind.
func ensureDir(dir string, build func(tmp string) error) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	tmp := fmt.Sprintf("%s.tmp%d", dir, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := build(tmp); err != nil {
		os.RemoveAll(tmp)
		return err
	}
	if err := os.Rename(tmp, dir); err != nil {
		os.RemoveAll(tmp)
		if _, serr := os.Stat(dir); serr == nil {
			return nil // another invocation finished it first
		}
		return err
	}
	return nil
}
