package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/obs"
)

// echoClassify returns the pattern's own label, making expected results
// trivial without a trained model.
func echoClassify(p *clip.Pattern) clip.Label { return p.Label }

// perClip lifts a per-clip fake into the pool's batch classifier: it calls
// classify once per clip, in order.
func perClip(classify func(*clip.Pattern) clip.Label) func([]*clip.Pattern) []clip.Label {
	return func(ps []*clip.Pattern) []clip.Label {
		out := make([]clip.Label, len(ps))
		for i, p := range ps {
			out[i] = classify(p)
		}
		return out
	}
}

func testPattern(label clip.Label) *clip.Pattern {
	return &clip.Pattern{Label: label}
}

func TestPoolProcessesAll(t *testing.T) {
	reg := obs.NewRegistry()
	p := newPool(4, 64, 8, time.Millisecond, perClip(echoClassify), reg)
	defer p.shutdown()

	const n = 50
	tasks := make([]*task, n)
	for i := range tasks {
		want := clip.Hotspot
		if i%2 == 0 {
			want = clip.NonHotspot
		}
		tasks[i] = newTask(context.Background(), testPattern(want))
		if err := p.submit(tasks[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, tk := range tasks {
		res := <-tk.result
		if res.err != nil {
			t.Fatalf("task %d: %v", i, res.err)
		}
		if res.label != tk.pattern.Label {
			t.Fatalf("task %d: label %v, want %v", i, res.label, tk.pattern.Label)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["server.clips.classified"]; got != n {
		t.Fatalf("classified counter: %d, want %d", got, n)
	}
	if bs := snap.Histograms["server.batch.size"]; bs.Count == 0 || bs.Max < 1 {
		t.Fatalf("batch-size histogram not recorded: %+v", bs)
	}
}

func TestPoolQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	classify := func(p *clip.Pattern) clip.Label {
		started <- struct{}{}
		<-gate
		return clip.NonHotspot
	}
	reg := obs.NewRegistry()
	p := newPool(1, 2, 1, 0, perClip(classify), reg)
	defer p.shutdown()
	defer close(gate)

	first := newTask(context.Background(), testPattern(clip.Hotspot))
	if err := p.submit(first); err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now blocked inside classify

	// Fill the queue to capacity.
	queued := []*task{
		newTask(context.Background(), testPattern(clip.Hotspot)),
		newTask(context.Background(), testPattern(clip.Hotspot)),
	}
	for i, tk := range queued {
		if err := p.submit(tk); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}

	if err := p.submit(newTask(context.Background(), testPattern(clip.Hotspot))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit on full queue: %v, want ErrQueueFull", err)
	}
	if got := reg.Snapshot().Counters["server.queue.rejected"]; got != 1 {
		t.Fatalf("rejected counter: %d, want 1", got)
	}
}

func TestPoolSkipsCancelledTasks(t *testing.T) {
	p := newPool(1, 8, 4, 0, perClip(echoClassify), nil)
	defer p.shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tk := newTask(ctx, testPattern(clip.Hotspot))
	if err := p.submit(tk); err != nil {
		t.Fatal(err)
	}
	res := <-tk.result
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("cancelled task result: %v, want context.Canceled", res.err)
	}
}

func TestPoolShutdownDrainsQueue(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	classify := func(p *clip.Pattern) clip.Label {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return clip.NonHotspot
	}
	p := newPool(1, 16, 1, 0, perClip(classify), nil)

	tasks := make([]*task, 5)
	for i := range tasks {
		tasks[i] = newTask(context.Background(), testPattern(clip.Hotspot))
		if err := p.submit(tasks[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	<-started // worker holds task 0

	done := make(chan struct{})
	go func() {
		p.shutdown()
		close(done)
	}()
	close(gate) // release the worker; shutdown must drain all queued tasks

	for i, tk := range tasks {
		select {
		case res := <-tk.result:
			if res.err != nil {
				t.Fatalf("task %d: %v", i, res.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("task %d orphaned by shutdown", i)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not return")
	}
	if err := p.submit(newTask(context.Background(), testPattern(clip.Hotspot))); !errors.Is(err, ErrPoolStopped) {
		t.Fatalf("submit after shutdown: %v, want ErrPoolStopped", err)
	}
}
