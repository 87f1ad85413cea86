package iccad

import (
	"math/rand"
	"sync"
	"testing"

	"hotspot/internal/clip"
	"hotspot/internal/geom"
	"hotspot/internal/litho"
)

func TestMotifFamiliesProduceBothLabels(t *testing.T) {
	// Every family must yield hotspots from the risky range and
	// nonhotspots from the safe range often enough to be usable.
	rng := rand.New(rand.NewSource(1))
	for fi, family := range motifFamilies {
		hotRisky, safeSafe := 0, 0
		const n = 30
		for i := 0; i < n; i++ {
			if classifyMotif(family(rng, true)) == motifHot {
				hotRisky++
			}
			if classifyMotif(family(rng, false)) != motifHot {
				safeSafe++
			}
		}
		if hotRisky < n/3 {
			t.Errorf("family %d: only %d/%d risky motifs are hotspots", fi, hotRisky, n)
		}
		if safeSafe < n/2 {
			t.Errorf("family %d: only %d/%d safe motifs are nonhotspots", fi, safeSafe, n)
		}
	}
}

func TestMotifGeometryWithinReach(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lim := geom.R(-motifReach, -motifReach, coreSide+motifReach, coreSide+motifReach)
	for i := 0; i < 100; i++ {
		m := RandomMotif(rng, i%2 == 0)
		if !lim.ContainsRect(m.Bounds()) {
			t.Fatalf("motif %s escapes reach: %v", m.Family, m.Bounds())
		}
	}
}

func smallConfig() Config {
	return Config{
		Name: "test_bench", Process: "32nm",
		W: 40000, H: 40000,
		TestHS: 8, TrainHS: 10, TrainNHS: 40,
		FillFactor: 0.5, Seed: 42, Workers: 4,
	}
}

var (
	smallOnce  sync.Once
	smallBench *Benchmark
)

// sharedSmall returns a cached small benchmark (generation is oracle-heavy,
// so tests share one instance; mutation-free tests only).
func sharedSmall() *Benchmark {
	smallOnce.Do(func() { smallBench = Generate(smallConfig()) })
	return smallBench
}

func TestGenerateSmallBenchmark(t *testing.T) {
	b := sharedSmall()
	s := b.Stats()
	if s.TestHS != 8 {
		t.Fatalf("test hotspots: %d, want 8", s.TestHS)
	}
	if s.TrainHS != 10 || s.TrainNHS != 40 {
		t.Fatalf("training set: %d/%d, want 10/40", s.TrainHS, s.TrainNHS)
	}
	if b.Test.NumRects() == 0 {
		t.Fatal("empty testing layout")
	}
	if s.AreaUM2 != 40*40 {
		t.Fatalf("area: %v", s.AreaUM2)
	}
	// Truth cores are core-sized and inside the layout.
	for _, c := range b.TruthCores {
		if c.W() != 1200 || c.H() != 1200 {
			t.Fatalf("truth core size: %v", c)
		}
		if !b.Test.Bounds.ContainsRect(c) {
			t.Fatalf("truth core outside layout: %v", c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := sharedSmall()
	b := Generate(smallConfig()) // a second, independent generation
	if a.Test.NumRects() != b.Test.NumRects() {
		t.Fatalf("layout rects differ: %d vs %d", a.Test.NumRects(), b.Test.NumRects())
	}
	if len(a.TruthCores) != len(b.TruthCores) {
		t.Fatal("truth differs")
	}
	for i := range a.TruthCores {
		if a.TruthCores[i] != b.TruthCores[i] {
			t.Fatalf("truth core %d differs", i)
		}
	}
	if len(a.Train) != len(b.Train) {
		t.Fatal("training sets differ")
	}
	for i := range a.Train {
		if a.Train[i].Label != b.Train[i].Label || len(a.Train[i].Rects) != len(b.Train[i].Rects) {
			t.Fatalf("training clip %d differs", i)
		}
	}
}

func TestTruthCoresVerifiedInSitu(t *testing.T) {
	// The planted hotspots must be confirmed by the oracle when evaluated
	// against the full layout (standalone labels must transfer).
	b := sharedSmall()
	for i, core := range b.TruthCores {
		region := core.Expand(labelExpand)
		drawn := b.Test.QueryClipped(b.Layer, region.Expand(litho.Default.Margin), nil)
		if !litho.Default.HasDefectIn(drawn, region, core) {
			t.Fatalf("truth core %d not confirmed in situ: %v", i, core)
		}
	}
}

func TestBackgroundIsClean(t *testing.T) {
	// Sample background regions away from all truth cores and planted
	// sites: the oracle must find no defects there.
	b := sharedSmall()
	rng := rand.New(rand.NewSource(9))
	checked := 0
	for tries := 0; tries < 200 && checked < 12; tries++ {
		x := geom.Coord(rng.Intn(int(b.Test.Bounds.W() - 2000)))
		y := geom.Coord(rng.Intn(int(b.Test.Bounds.H() - 2000)))
		core := geom.R(x, y, x+1200, y+1200)
		// Skip regions near any planted site (hot or safe): motif cores
		// line up on the site grid.
		nearSite := false
		for sx := geom.Coord(sitePitch); sx < b.Test.Bounds.X1; sx += sitePitch {
			for sy := geom.Coord(sitePitch); sy < b.Test.Bounds.Y1; sy += sitePitch {
				siteBox := geom.R(sx-motifReach, sy-motifReach, sx+coreSide+motifReach, sy+coreSide+motifReach)
				if siteBox.Overlaps(core.Expand(labelExpand)) {
					nearSite = true
				}
			}
		}
		if nearSite {
			continue
		}
		region := core.Expand(labelExpand)
		drawn := b.Test.QueryClipped(b.Layer, region.Expand(litho.Default.Margin), nil)
		if litho.Default.HasDefectIn(drawn, region, core) {
			t.Fatalf("background defect at %v", core)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no background regions sampled")
	}
}

func TestTrainingClipsWellFormed(t *testing.T) {
	b := sharedSmall()
	for i, p := range b.Train {
		if p.Label != clip.Hotspot && p.Label != clip.NonHotspot {
			t.Fatalf("clip %d unlabelled", i)
		}
		if len(p.Rects) == 0 {
			t.Fatalf("clip %d empty", i)
		}
		for _, r := range p.Rects {
			if !p.Window.ContainsRect(r) {
				t.Fatalf("clip %d rect escapes window", i)
			}
		}
		if !p.Window.ContainsRect(p.Core) {
			t.Fatalf("clip %d core outside window", i)
		}
	}
}

func TestTrainingLabelsMatchOracle(t *testing.T) {
	b := sharedSmall()
	for i, p := range b.Train {
		region := p.Core.Expand(labelExpand)
		hot := litho.Default.HasDefectIn(p.Rects, region, p.Core)
		want := p.Label == clip.Hotspot
		if hot != want {
			t.Fatalf("clip %d label %v but oracle says hot=%v", i, p.Label, hot)
		}
	}
}

func TestSuiteShape(t *testing.T) {
	if len(Suite) != 6 {
		t.Fatalf("suite size: %d", len(Suite))
	}
	names := map[string]bool{}
	for _, c := range Suite {
		if names[c.Name] {
			t.Fatalf("duplicate name %s", c.Name)
		}
		names[c.Name] = true
		if c.W <= 0 || c.H <= 0 || c.TestHS <= 0 {
			t.Fatalf("bad config %+v", c)
		}
	}
	if _, ok := ConfigByName("MX_benchmark3"); !ok {
		t.Fatal("lookup failed")
	}
	if TestLayoutName("MX_benchmark2") != "Array_benchmark2" {
		t.Fatal("test layout name mapping")
	}
}

func TestScaleReducesWork(t *testing.T) {
	cfg := Config{
		Name: "scaled", Process: "28nm",
		W: 100000, H: 100000,
		TestHS: 100, TrainHS: 50, TrainNHS: 200,
		FillFactor: 0.4, Seed: 7, Workers: 4,
		Scale: 0.3,
	}
	b := Generate(cfg)
	s := b.Stats()
	if s.AreaUM2 > 0.3*0.3*100*100*1.1 {
		t.Fatalf("area not scaled: %v", s.AreaUM2)
	}
	if s.TestHS > 12 {
		t.Fatalf("test hotspots not scaled: %d", s.TestHS)
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	cfg := smallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}
