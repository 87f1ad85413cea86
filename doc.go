// Package hotspot is a from-scratch Go reproduction of "Machine-Learning-
// Based Hotspot Detection Using Topological Classification and Critical
// Feature Extraction" (Yu, Lin, Jiang, Chiang; DAC 2013 / TCAD 2015): a
// lithography hotspot detection framework built on topological
// classification, MTCG critical feature extraction, iterative multiple
// SVM-kernel learning with a feedback kernel, density-based layout clip
// extraction, and redundant clip removal.
//
// This package is the public API (api.go): Train, Detect, Evaluate,
// LoadModel, GenerateBenchmark, the chip-scale tiled scan
// (Detector.ScanTiled, bounded memory with a resumable tile store), the
// hotspotd inference server (NewServer), and the clip/layout types they
// operate on. The implementation lives under internal/ (geom, gds,
// layout, litho, iccad, clip, topo, mtcg, features, svm, core, scan,
// server, obs, patmatch, drc, render, bundle, experiments); the hotspot
// command (cmd/hotspot) and the examples (examples/) exercise the same
// pipeline. The benchmarks in bench_test.go regenerate every table and
// figure of the paper's evaluation section — see docs/ARCHITECTURE.md
// for the system walkthrough, DESIGN.md for the experiment index, and
// EXPERIMENTS.md for recorded results.
package hotspot
