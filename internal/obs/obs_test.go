package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter: %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("counter handle not stable across lookups")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge: %d, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	st := h.Stats()
	if st.Count != 100 {
		t.Fatalf("count: %d", st.Count)
	}
	if st.Sum != 5050 {
		t.Fatalf("sum: %v", st.Sum)
	}
	if st.Max != 100 {
		t.Fatalf("max: %v", st.Max)
	}
	if st.P50 != 50 {
		t.Fatalf("p50: %v", st.P50)
	}
	if st.P95 != 95 {
		t.Fatalf("p95: %v", st.P95)
	}
}

func TestHistogramRingWindow(t *testing.T) {
	// Quantiles slide with the window; count/sum/max stay exact.
	h := &Histogram{}
	for i := 0; i < histRing; i++ {
		h.Observe(1000)
	}
	for i := 0; i < histRing; i++ {
		h.Observe(1)
	}
	st := h.Stats()
	if st.Count != 2*histRing {
		t.Fatalf("count: %d", st.Count)
	}
	if st.Max != 1000 {
		t.Fatalf("max: %v", st.Max)
	}
	if st.P50 != 1 || st.P95 != 1 {
		t.Fatalf("window quantiles: p50=%v p95=%v, want 1", st.P50, st.P95)
	}
}

// TestConcurrentUpdates hammers one registry from many goroutines; run
// with -race this is the registry's data-race certificate.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Gauge("gauge").Set(int64(i))
				r.Histogram("hist").Observe(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared counter: %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("hist").Stats().Count; got != workers*perWorker {
		t.Fatalf("hist count: %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotJSONGolden locks the registry's JSON export shape.
func TestSnapshotJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("clips").Add(42)
	r.Gauge("kernels").Set(7)
	h := r.Histogram("train.seconds")
	h.Observe(1)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "counters": {
    "clips": 42
  },
  "gauges": {
    "kernels": 7
  },
  "histograms": {
    "train.seconds": {
      "count": 2,
      "sum": 4,
      "max": 3,
      "p50": 1,
      "p95": 3
    }
  }
}
`
	if buf.String() != golden {
		t.Fatalf("JSON export drifted:\n got: %s\nwant: %s", buf.String(), golden)
	}
}

func TestSpanNesting(t *testing.T) {
	var tel Telemetry
	r := NewRegistry()
	parent := Begin(&tel, r, "train")
	child := Begin(&tel, r, "train/classify")
	child.AddItems(12)
	time.Sleep(time.Millisecond)
	if d := child.End(); d <= 0 {
		t.Fatalf("child duration: %v", d)
	}
	grand := Begin(&tel, r, "train/kernels/self-train")
	grand.End()
	parent.AddItems(3)
	parentDur := parent.End()

	// Spans record in the order they end: inner spans before the outer.
	wantOrder := []string{"train/classify", "train/kernels/self-train", "train"}
	if len(tel.Stages) != len(wantOrder) {
		t.Fatalf("stages: %+v", tel.Stages)
	}
	for i, name := range wantOrder {
		if tel.Stages[i].Name != name {
			t.Fatalf("stage %d: %q, want %q", i, tel.Stages[i].Name, name)
		}
	}
	cs, ok := tel.Stage("train/classify")
	if !ok || cs.Items != 12 {
		t.Fatalf("child stage: %+v ok=%v", cs, ok)
	}
	ps, _ := tel.Stage("train")
	if ps.Duration < cs.Duration {
		t.Fatalf("parent %v shorter than child %v", ps.Duration, cs.Duration)
	}
	if parentDur != ps.Duration {
		t.Fatalf("End return %v != recorded %v", parentDur, ps.Duration)
	}
	// Registry side: histogram per stage, items counter for the child.
	if r.Histogram("stage.train.seconds").Stats().Count != 1 {
		t.Fatal("parent histogram not recorded")
	}
	if got := r.Counter("stage.train/classify.items").Value(); got != 12 {
		t.Fatalf("child items counter: %d", got)
	}
}

func TestTelemetryJSONRoundTrip(t *testing.T) {
	tel := Telemetry{
		Stages: []StageStats{
			{Name: "detect.extract", Duration: 1500 * time.Microsecond, Items: 99},
			{Name: "detect.evaluate", Duration: 2 * time.Millisecond},
		},
	}
	tel.AddCounter("flagged", 7)
	data, err := json.Marshal(&tel)
	if err != nil {
		t.Fatal(err)
	}
	var back Telemetry
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages) != 2 || back.Stages[0] != tel.Stages[0] || back.Counters["flagged"] != 7 {
		t.Fatalf("round trip: %+v", back)
	}
	if !strings.Contains(string(data), `"duration_ns"`) {
		t.Fatalf("schema drifted: %s", data)
	}
}

// TestNilRegistryDisabled certifies the disabled state: every instrument
// reached through a nil registry is inert, and (checked via AllocsPerRun)
// the whole instrumentation path allocates nothing.
func TestNilRegistryDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		h.Observe(1.5)
		h.ObserveDuration(time.Millisecond)
		sp := Begin(nil, r, "stage")
		sp.AddItems(4)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates: %v allocs/op", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Stats().Count != 0 {
		t.Fatal("nil instruments recorded data")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Histograms != nil {
		t.Fatalf("nil snapshot: %+v", s)
	}
}

func TestPublishExpvarRebinds(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("n").Add(1)
	r1.PublishExpvar("obs_test_metrics")
	v := expvar.Get("obs_test_metrics")
	if v == nil {
		t.Fatal("not published")
	}
	if !strings.Contains(v.String(), `"n":1`) {
		t.Fatalf("expvar payload: %s", v.String())
	}
	// Republishing the same name must not panic and must serve the new
	// registry.
	r2 := NewRegistry()
	r2.Counter("n").Add(5)
	r2.PublishExpvar("obs_test_metrics")
	if !strings.Contains(expvar.Get("obs_test_metrics").String(), `"n":5`) {
		t.Fatalf("rebind failed: %s", expvar.Get("obs_test_metrics").String())
	}
}

func TestTelemetryString(t *testing.T) {
	var tel Telemetry
	sp := Begin(&tel, nil, "stage.a")
	sp.AddItems(5)
	sp.End()
	tel.AddCounter("svm.trainings", 3)
	s := tel.String()
	if !strings.Contains(s, "stage.a") || !strings.Contains(s, "items=5") || !strings.Contains(s, "svm.trainings") {
		t.Fatalf("String(): %q", s)
	}
	var empty *Telemetry
	if empty.String() != "(no telemetry)" {
		t.Fatalf("nil String(): %q", empty.String())
	}
}
