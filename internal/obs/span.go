package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageStats records one pipeline stage: its wall-clock duration and how
// many items it processed. Duration marshals as integer nanoseconds.
type StageStats struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	Items    int64         `json:"items,omitempty"`
}

// Telemetry is the per-run observability record surfaced on training and
// detection results: one StageStats per pipeline stage in execution order,
// plus aggregate counters. It is plain data — JSON-serializable and free
// of locks — so it can live on value types like core.Report. Spans must be
// ended from a single goroutine (the pipeline orchestrator); concurrent
// workers report through Registry counters instead, which are folded in
// via AddCounters.
type Telemetry struct {
	Stages   []StageStats     `json:"stages,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Stage returns the named stage's stats, false when absent.
func (t *Telemetry) Stage(name string) (StageStats, bool) {
	if t == nil {
		return StageStats{}, false
	}
	for _, s := range t.Stages {
		if s.Name == name {
			return s, true
		}
	}
	return StageStats{}, false
}

// AddCounter accumulates into the named counter.
func (t *Telemetry) AddCounter(name string, v int64) {
	if t == nil {
		return
	}
	if t.Counters == nil {
		t.Counters = make(map[string]int64)
	}
	t.Counters[name] += v
}

// AddCounters folds a counter map (typically Registry.CounterValues) into
// the telemetry.
func (t *Telemetry) AddCounters(m map[string]int64) {
	for k, v := range m {
		t.AddCounter(k, v)
	}
}

// String renders the telemetry as an aligned human-readable table.
func (t *Telemetry) String() string {
	if t == nil || (len(t.Stages) == 0 && len(t.Counters) == 0) {
		return "(no telemetry)"
	}
	var b strings.Builder
	width := 0
	for _, s := range t.Stages {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range t.Stages {
		fmt.Fprintf(&b, "  %-*s %12s", width, s.Name, s.Duration.Round(time.Microsecond))
		if s.Items > 0 {
			fmt.Fprintf(&b, "  items=%d", s.Items)
		}
		b.WriteByte('\n')
	}
	if len(t.Counters) > 0 {
		names := make([]string, 0, len(t.Counters))
		for k := range t.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "  %-*s %12d\n", width, k, t.Counters[k])
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// Span measures one pipeline stage. Begin starts it, End records it into
// the Telemetry (as a StageStats) and the Registry (as a duration
// histogram plus an item counter). A nil *Span — what Begin returns when
// both sinks are nil — is a no-op on every method, so span instrumentation
// costs nothing when observability is off.
type Span struct {
	tel   *Telemetry
	reg   *Registry
	name  string
	start time.Time
	items int64
}

// Begin starts a span writing to either or both sinks. Returns nil (a
// no-op span) when both are nil.
func Begin(tel *Telemetry, reg *Registry, name string) *Span {
	if tel == nil && reg == nil {
		return nil
	}
	return &Span{tel: tel, reg: reg, name: name, start: time.Now()}
}

// AddItems accumulates the span's item count.
func (s *Span) AddItems(n int64) {
	if s == nil {
		return
	}
	s.items += n
}

// End stops the span and records it. Returns the measured duration (0 for
// a nil span).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.tel != nil {
		s.tel.Stages = append(s.tel.Stages, StageStats{Name: s.name, Duration: d, Items: s.items})
	}
	if s.reg != nil {
		s.reg.Histogram("stage." + s.name + ".seconds").Observe(d.Seconds())
		if s.items != 0 {
			s.reg.Counter("stage." + s.name + ".items").Add(s.items)
		}
	}
	return d
}
