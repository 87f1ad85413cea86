package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"hotspot/internal/clip"
	"hotspot/internal/obs"
	"hotspot/internal/workerpanic"
)

// Backpressure and lifecycle errors surfaced by the pool.
var (
	// ErrQueueFull is returned by submit when the bounded queue is at
	// capacity; handlers translate it to 429 + Retry-After.
	ErrQueueFull = errors.New("server: request queue is full")
	// ErrPoolStopped is returned by submit after shutdown has begun.
	ErrPoolStopped = errors.New("server: server is shutting down")
)

// task is one clip classification awaiting a worker. Its result channel is
// buffered so a worker can always complete a task without blocking, even
// when the submitting handler has already given up on its deadline.
type task struct {
	ctx     context.Context
	pattern *clip.Pattern
	result  chan taskResult
}

type taskResult struct {
	label clip.Label
	err   error
}

func newTask(ctx context.Context, p *clip.Pattern) *task {
	return &task{ctx: ctx, pattern: p, result: make(chan taskResult, 1)}
}

// pool is the bounded classification worker pool. Incoming clips from all
// requests share one queue; each worker coalesces queued clips into batches
// of up to batchSize (waiting at most batchWait for stragglers) so that a
// burst of small requests is served with few scheduler wakeups, while a
// single large request is spread across every worker.
type pool struct {
	queue     chan *task
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	batchSize int
	batchWait time.Duration
	// classify labels a batch of clips in one call (the detector's batched
	// path behind its verdict memo): a coalesced batch, a lone clip and
	// the stop-time drain alike.
	classify func([]*clip.Pattern) []clip.Label
	reg      *obs.Registry
}

func newPool(workers, queueSize, batchSize int, batchWait time.Duration, classify func([]*clip.Pattern) []clip.Label, reg *obs.Registry) *pool {
	p := &pool{
		queue:     make(chan *task, queueSize),
		stop:      make(chan struct{}),
		batchSize: batchSize,
		batchWait: batchWait,
		classify:  classify,
		reg:       reg,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// submit enqueues a task without blocking: a full queue is an immediate
// ErrQueueFull (the explicit backpressure signal), never a stalled caller.
func (p *pool) submit(t *task) error {
	select {
	case <-p.stop:
		return ErrPoolStopped
	default:
	}
	select {
	case p.queue <- t:
		p.reg.Counter("server.queue.accepted").Inc()
		p.reg.Gauge("server.queue.depth").Set(int64(len(p.queue)))
		return nil
	default:
		p.reg.Counter("server.queue.rejected").Inc()
		return ErrQueueFull
	}
}

// shutdown stops the workers after they drain the queue. Safe to call more
// than once; blocks until every worker has exited.
func (p *pool) shutdown() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}

func (p *pool) worker() {
	defer p.wg.Done()
	for {
		var first *task
		select {
		case first = <-p.queue:
		case <-p.stop:
			// Drain whatever is still queued so no submitted task is
			// orphaned, then exit.
			for {
				select {
				case t := <-p.queue:
					p.run([]*task{t})
				default:
					return
				}
			}
		}
		p.run(p.collect(first))
	}
}

// collect coalesces up to batchSize tasks, waiting at most batchWait after
// the first for the rest of the batch to arrive.
func (p *pool) collect(first *task) []*task {
	batch := []*task{first}
	if p.batchSize <= 1 {
		return batch
	}
	var timeout <-chan time.Time
	if p.batchWait > 0 {
		timer := time.NewTimer(p.batchWait)
		defer timer.Stop()
		timeout = timer.C
	}
	for len(batch) < p.batchSize {
		if timeout == nil {
			// No wait budget: take only what is already queued.
			select {
			case t := <-p.queue:
				batch = append(batch, t)
			default:
				return batch
			}
			continue
		}
		select {
		case t := <-p.queue:
			batch = append(batch, t)
		case <-timeout:
			return batch
		case <-p.stop:
			return batch
		}
	}
	return batch
}

// run classifies a batch, skipping tasks whose request context has already
// expired (their handler has moved on; the buffered result channel makes
// the send non-blocking either way). The still-live tasks are classified
// in one call. A panic while classifying fails the batch's unanswered
// tasks with a *workerpanic.Error, so their requests answer 500 and the
// worker lives on to serve the next batch.
func (p *pool) run(batch []*task) {
	p.reg.Histogram("server.batch.size").Observe(float64(len(batch)))
	p.reg.Gauge("server.queue.depth").Set(int64(len(p.queue)))
	live := batch[:0]
	for _, t := range batch {
		if err := t.ctx.Err(); err != nil {
			p.reg.Counter("server.clips.cancelled").Inc()
			t.result <- taskResult{err: err}
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return
	}
	answered := 0
	defer func() {
		if v := recover(); v != nil {
			err := workerpanic.Recovered(v)
			for _, t := range live[answered:] {
				t.result <- taskResult{err: err}
			}
		}
	}()
	ps := make([]*clip.Pattern, len(live))
	for i, t := range live {
		ps[i] = t.pattern
	}
	start := time.Now()
	labels := p.classify(ps)
	perClip := time.Since(start) / time.Duration(len(live))
	for i, t := range live {
		p.reg.Histogram("server.classify.seconds").ObserveDuration(perClip)
		p.reg.Counter("server.clips.classified").Inc()
		t.result <- taskResult{label: labels[i]}
		answered++
	}
}
