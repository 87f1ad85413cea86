package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlugify(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"Chip-scale tiled scanning", "chip-scale-tiled-scanning"},
		{"POST /v1/detect", "post-v1detect"},
		{"`code` in a Heading", "code-in-a-heading"},
		{"Hello, World!", "hello-world"},
		{"  trimmed  ", "trimmed"},
	} {
		if got := slugify(tc.in); got != tc.want {
			t.Errorf("slugify(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckFileFindings(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "target.md", "# Target\n\n## Real Section\n")
	doc := write(t, dir, "doc.md",
		"# Doc\n\n"+
			"[ok](target.md) [ok2](target.md#real-section) [self](#doc)\n"+
			"[gone](missing.md) [bad](target.md#nope) with teh typo\n\n"+
			"```\n[fenced](also-missing.md) seperate\n```\n\n"+
			"and `[inline](code-missing.md) occured` spans are skipped\n")

	findings, err := checkFile(doc, map[string]map[string]bool{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	for i, want := range []string{"missing.md", `anchor "target.md#nope"`, `misspelling "teh"`} {
		if !strings.Contains(findings[i], want) {
			t.Errorf("finding %d = %q, want mention of %q", i, findings[i], want)
		}
	}
	for _, f := range findings {
		if !strings.HasPrefix(f, doc+":4:") {
			t.Errorf("finding %q should point at line 4", f)
		}
	}
}

func TestGoStringLiterals(t *testing.T) {
	dir := t.TempDir()
	src := write(t, dir, "a.go", `package a

// A comment mentioning "ghost.metric" must not vouch for it.
const real = "scan.tiles_cached"

var raw = `+"`dist.shards_cached`"+`
`)
	lits, err := goStringLiterals([]string{src})
	if err != nil {
		t.Fatal(err)
	}
	if !lits["scan.tiles_cached"] || !lits["dist.shards_cached"] {
		t.Fatalf("literals missing: %v", lits)
	}
	if lits["ghost.metric"] {
		t.Fatal("comment text leaked into the literal set")
	}
}

func TestMetricKnownDerivesSpanNames(t *testing.T) {
	lits := map[string]bool{"scan.tiles": true, "scan.tiles_cached": true, "svm.train_seconds": true}
	for _, name := range []string{
		"scan.tiles_cached", "svm.train_seconds",
		"stage.scan.tiles.seconds", "stage.scan.tiles.items", // obs.Begin("scan.tiles")
		"scan.tiles.seconds", // a Histogram named through the base literal
	} {
		if !metricKnown(name, lits) {
			t.Fatalf("metricKnown(%q) = false", name)
		}
	}
	for _, name := range []string{"scan.ghost", "stage.scan.tiles.count", "stage.scan.ghost.seconds", "other.seconds"} {
		if metricKnown(name, lits) {
			t.Fatalf("metricKnown(%q) = true", name)
		}
	}
}

// TestCheckFileMetricTable pins the drift check end to end: metric-shaped
// names in table rows under a "metric" heading must resolve to Go string
// literals; names outside such sections, non-metric-shaped spans, and
// file names are exempt.
func TestCheckFileMetricTable(t *testing.T) {
	dir := t.TempDir()
	md := write(t, dir, "ops.md", strings.Join([]string{
		"# Operations",
		"",
		"## Metrics",
		"",
		"| metric | meaning |",
		"|---|---|",
		"| `scan.tiles_cached` | tiles served from the store |",
		"| `scan.tiles.seconds` | span histogram |",
		"| `scan.phantom_total` | does not exist in Go |",
		"| `store.jsonl` | a file name, exempt |",
		"| `core.ScanTiled` | an identifier, not metric-shaped |",
		"",
		"## Elsewhere",
		"",
		"| `not.checked_here` | outside a metric section |",
		"",
		"Prose mentioning `another.phantom` is never checked.",
	}, "\n"))
	lits := map[string]bool{"scan.tiles_cached": true, "scan.tiles": true}

	findings, err := checkFile(md, map[string]map[string]bool{}, lits)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly the phantom metric", findings)
	}
	if !strings.Contains(findings[0], `"scan.phantom_total"`) {
		t.Fatalf("finding %q does not name the phantom metric", findings[0])
	}
}

func TestAnchorsDuplicateHeadings(t *testing.T) {
	dir := t.TempDir()
	p := write(t, dir, "dup.md", "# Same\n## Same\ntext\n## Same\n")
	set, err := anchorsOf(p, map[string]map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"same", "same-1", "same-2"} {
		if !set[want] {
			t.Errorf("missing anchor %q in %v", want, set)
		}
	}
}

func TestFencedHeadingsIgnored(t *testing.T) {
	dir := t.TempDir()
	p := write(t, dir, "f.md", "# Real\n```\n# Not A Heading\n```\n")
	set, err := anchorsOf(p, map[string]map[string]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if set["not-a-heading"] {
		t.Error("heading inside a fence must not produce an anchor")
	}
	if !set["real"] {
		t.Error("real heading missing")
	}
}

// TestNestedModuleDoesNotVouch pins the module boundary of the metric
// drift check: a documented metric whose only string literal sits in a
// directory with its own go.mod (another module, which may only read the
// counter) is a finding, while one emitted by the root module resolves.
func TestNestedModuleDoesNotVouch(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example\n")
	write(t, root, "emit.go", "package example\n\nvar _ = \"root.emitted\"\n")
	sub := filepath.Join(root, "bench")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	write(t, sub, "go.mod", "module example/bench\n")
	write(t, sub, "read.go", "package main\n\nvar _ = \"nested.only\"\n")
	write(t, root, "ops.md", strings.Join([]string{
		"## Metrics",
		"",
		"| metric | meaning |",
		"|---|---|",
		"| `root.emitted` | emitted by the root module |",
		"| `nested.only` | named only by the nested module |",
	}, "\n"))

	md, gos, err := collect(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(md) != 1 || len(gos) != 1 {
		t.Fatalf("collected %v markdown and %v Go files, want ops.md and emit.go", md, gos)
	}
	lits, err := goStringLiterals(gos)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := checkFile(md[0], map[string]map[string]bool{}, lits)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], `"nested.only"`) {
		t.Fatalf("findings = %v, want exactly the nested-module metric", findings)
	}
}
