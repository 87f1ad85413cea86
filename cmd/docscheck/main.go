// Command docscheck lints the repository's markdown documentation with no
// dependencies beyond the standard library:
//
//   - every relative link resolves to an existing file, and a #fragment
//     resolves to a real heading anchor in the target (GitHub slug rules);
//   - a curated list of common misspellings is absent from prose;
//   - every metric name documented in a table under a "metric" heading
//     (inline-code, dotted-lowercase, e.g. `scan.tiles_cached`) exists as
//     a string literal in the repository's Go sources, so runbooks cannot
//     drift from the telemetry they describe. Span metrics derived by
//     obs.Begin (`stage.X.seconds`, `stage.X.items`) resolve through
//     their base name. Go sources in a directory below the root with its
//     own go.mod (a separate module, such as a benchmark harness that only
//     reads counters) never vouch for a metric.
//
// HTTP(S) and mailto links are not fetched (CI must not depend on the
// network). Fenced code blocks and inline code spans are ignored for the
// link and spelling checks, so JSON snippets like [x0,y0,x1,y1] never
// false-positive.
//
// Usage:
//
//	docscheck [files or directories...]
//
// Directories are walked for *.md (skipping dot-directories). With no
// arguments the current directory is walked. Exit status 1 means findings
// were printed, one per line, as file:line: message.
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var files, goFiles []string
	for _, root := range roots {
		md, gos, err := collect(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		files = append(files, md...)
		goFiles = append(goFiles, gos...)
	}
	literals, err := goStringLiterals(goFiles)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}

	var findings []string
	anchors := map[string]map[string]bool{} // file path -> set of heading slugs
	for _, f := range files {
		if _, err := anchorsOf(f, anchors); err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
	}
	for _, f := range files {
		fs, err := checkFile(f, anchors, literals)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d finding(s) in %d file(s)\n", len(findings), len(files))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d file(s) clean\n", len(files))
}

// collect returns the markdown files and the metric-vouching Go files
// under root (root itself when it is a file). Dot-directories are skipped
// outright; Go files inside a directory below root that holds its own
// go.mod belong to another module and are left out.
func collect(root string) (md, gos []string, err error) {
	fi, err := os.Stat(root)
	if err != nil {
		return nil, nil, err
	}
	if !fi.IsDir() {
		return []string{root}, nil, nil
	}
	var nested []string // module roots below root
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					nested = append(nested, path+string(filepath.Separator))
				}
			}
			return nil
		}
		switch {
		case strings.EqualFold(filepath.Ext(path), ".md"):
			md = append(md, path)
		case filepath.Ext(path) == ".go":
			for _, mod := range nested {
				if strings.HasPrefix(path, mod) {
					return nil
				}
			}
			gos = append(gos, path)
		}
		return nil
	})
	return md, gos, err
}

var (
	linkRE    = regexp.MustCompile(`\[[^\]]*\]\(([^()\s]+)\)`)
	headingRE = regexp.MustCompile("^#{1,6}\\s+(.*)$")
	inlineRE  = regexp.MustCompile("`[^`]*`")
	spanRE    = regexp.MustCompile("`([^`]+)`")
	wordRE    = regexp.MustCompile(`[A-Za-z]+`)
	// metricRE matches a dotted lowercase metric identifier
	// (scan.tiles_cached, dist.shards_cached, stage.scan.tiles.seconds).
	metricRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)
)

// notMetricExt screens out metric-shaped file names (store.jsonl,
// scan.go) that legitimately appear in operations tables.
var notMetricExt = map[string]bool{
	".go": true, ".md": true, ".txt": true, ".json": true, ".jsonl": true,
	".yml": true, ".yaml": true, ".sh": true, ".out": true, ".ckpt": true,
}

// goStringLiterals collects every interpreted and raw string literal in
// the given Go files — the universe a documented metric name must resolve
// into. Tokenizing (rather than grepping) keeps literals in comments or
// struct tags from vouching for a dead metric.
func goStringLiterals(files []string) (map[string]bool, error) {
	lits := map[string]bool{}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		var sc scanner.Scanner
		sc.Init(fset.AddFile(path, fset.Base(), len(data)), data, nil, 0)
		for {
			_, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.STRING {
				continue
			}
			if s, err := strconv.Unquote(lit); err == nil {
				lits[s] = true
			}
		}
	}
	return lits, nil
}

// metricKnown reports whether a documented metric name resolves to a Go
// string literal. obs.Begin derives its span metrics from a base name —
// Begin(tel, reg, "scan.tiles") emits stage.scan.tiles.seconds and
// stage.scan.tiles.items — so those resolve through the base literal
// after stripping the derived prefix and suffix.
func metricKnown(name string, literals map[string]bool) bool {
	if literals[name] {
		return true
	}
	for _, suffix := range []string{".seconds", ".items"} {
		base, ok := strings.CutSuffix(name, suffix)
		if !ok {
			continue
		}
		if literals[base] {
			return true
		}
		if span, ok := strings.CutPrefix(base, "stage."); ok && literals[span] {
			return true
		}
	}
	return false
}

// misspellings maps common errors to their corrections. Curated: only
// unambiguous misspellings belong here, never words with a legitimate
// alternate spelling.
var misspellings = map[string]string{
	"teh":          "the",
	"recieve":      "receive",
	"recieved":     "received",
	"seperate":     "separate",
	"seperately":   "separately",
	"occured":      "occurred",
	"occurence":    "occurrence",
	"definately":   "definitely",
	"accross":      "across",
	"untill":       "until",
	"wich":         "which",
	"enviroment":   "environment",
	"existance":    "existence",
	"neccessary":   "necessary",
	"necessery":    "necessary",
	"paramter":     "parameter",
	"paramters":    "parameters",
	"propogate":    "propagate",
	"sucessful":    "successful",
	"succesful":    "successful",
	"supress":      "suppress",
	"thier":        "their",
	"transfering":  "transferring",
	"comparision":  "comparison",
	"overriden":    "overridden",
	"reproducable": "reproducible",
	"dependancy":   "dependency",
	"dependancies": "dependencies",
	"benchamrk":    "benchmark",
	"lenght":       "length",
	"heigth":       "height",
	"retreive":     "retrieve",
	"calender":     "calendar",
	"guage":        "gauge",
	"recurr":       "recur",
	"resumeable":   "resumable",
}

// anchorsOf computes (and caches) the set of GitHub-style heading anchors
// in a markdown file.
func anchorsOf(path string, cache map[string]map[string]bool) (map[string]bool, error) {
	clean := filepath.Clean(path)
	if a, ok := cache[clean]; ok {
		return a, nil
	}
	data, err := os.ReadFile(clean)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		m := headingRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		slug := slugify(m[1])
		// GitHub disambiguates duplicate headings with -1, -2, …
		if set[slug] {
			for i := 1; ; i++ {
				s := fmt.Sprintf("%s-%d", slug, i)
				if !set[s] {
					slug = s
					break
				}
			}
		}
		set[slug] = true
	}
	cache[clean] = set
	return set, nil
}

// slugify applies GitHub's heading-anchor rules: lowercase, drop
// everything but letters, digits, spaces, hyphens, and underscores, then
// replace spaces with hyphens. Inline code backticks and link syntax are
// stripped first.
func slugify(heading string) string {
	h := strings.NewReplacer("`", "", "[", "", "]", "").Replace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(h)) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

func checkFile(path string, anchorCache map[string]map[string]bool, literals map[string]bool) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var findings []string
	report := func(lineNo int, format string, args ...any) {
		findings = append(findings, fmt.Sprintf("%s:%d: %s", path, lineNo, fmt.Sprintf(format, args...)))
	}
	inFence := false
	inMetricSection := false
	for i, line := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		if m := headingRE.FindStringSubmatch(line); m != nil {
			inMetricSection = strings.Contains(strings.ToLower(m[1]), "metric")
		}
		// Metric-name drift check: inside a section whose heading mentions
		// metrics, every metric-shaped inline code span in a table row must
		// resolve to a Go string literal (see metricKnown).
		if inMetricSection && strings.HasPrefix(strings.TrimSpace(line), "|") {
			for _, m := range spanRE.FindAllStringSubmatch(line, -1) {
				name := m[1]
				if !metricRE.MatchString(name) || notMetricExt[filepath.Ext(name)] {
					continue
				}
				if !metricKnown(name, literals) {
					report(lineNo, "documented metric %q not found as a string literal in any Go source", name)
				}
			}
		}
		prose := inlineRE.ReplaceAllString(line, "")

		for _, m := range linkRE.FindAllStringSubmatch(prose, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			dest := filepath.Clean(path)
			if file != "" {
				dest = filepath.Join(filepath.Dir(path), file)
				fi, err := os.Stat(dest)
				if err != nil {
					report(lineNo, "broken link %q: %s does not exist", target, dest)
					continue
				}
				if fi.IsDir() || frag == "" {
					continue
				}
				if !strings.EqualFold(filepath.Ext(dest), ".md") {
					continue // anchors are only checkable in markdown
				}
			}
			if frag != "" {
				set, err := anchorsOf(dest, anchorCache)
				if err != nil {
					return nil, err
				}
				if !set[frag] {
					report(lineNo, "broken anchor %q: no heading in %s slugs to %q", target, dest, frag)
				}
			}
		}

		for _, w := range wordRE.FindAllString(prose, -1) {
			if fix, ok := misspellings[strings.ToLower(w)]; ok {
				report(lineNo, "misspelling %q (want %q)", w, fix)
			}
		}
	}
	return findings, nil
}
