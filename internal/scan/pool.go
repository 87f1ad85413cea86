package scan

import (
	"sync"

	"hotspot/internal/geom"
)

// task is one unit of scan work: a tile to load, split or extract, or,
// when job is set, the chunk job.cands[lo:hi] of a tile already extracted.
type task struct {
	tile   geom.Rect
	job    *tileJob
	lo, hi int
}

// stealPool is the scan scheduler: the tile grid, handed out in row-major
// order, and one double-ended queue of tasks per worker for the work the
// tiles spawn. A worker pops fresh tasks from the bottom of its own deque
// (LIFO: the chunks it just extracted, or the quadrants it just split, run
// next and hot in cache); when that is empty it takes the next unstarted
// tile, and once the grid is drained it steals the oldest task from the
// top of the fullest sibling deque (FIFO stealing takes the coarsest work,
// the classic work-stealing discipline): the chunks of the tiles still in
// flight. Unstarted tiles are an index into the grid, so the scheduler's
// memory does not grow with the tile count. A single mutex guards the
// cursor and the deques — a task with geometry takes milliseconds, so
// scheduler contention is noise — with a condition variable parking idle
// workers until new work is pushed or the scan drains.
type stealPool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	grid    tileGrid
	next    int64 // index of the next unstarted tile
	deques  [][]task
	pending int // tasks queued or in flight; 0 with the grid drained means the scan is done
	stopped bool
}

// newStealPool makes a pool of n workers (minimum 1) over the tiles of
// grid. Workers are not capped at the tile count: one tile's chunks can
// keep every worker busy.
func newStealPool(n int, grid tileGrid) *stealPool {
	p := &stealPool{grid: grid, deques: make([][]task, max(n, 1))}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *stealPool) workers() int { return len(p.deques) }

// push enqueues a task on worker w's own deque (a split's quadrants, an
// extracted tile's chunks). The caller must currently hold a task from
// get — push never resurrects a drained pool.
func (p *stealPool) push(w int, t task) {
	p.mu.Lock()
	p.deques[w] = append(p.deques[w], t)
	p.pending++
	p.mu.Unlock()
	p.cond.Signal()
}

// get returns the next task for worker w, blocking while other workers
// still hold tasks that might push new work. It returns ok=false when the
// pool is drained (every tile handed out and pending at zero) or stopped.
func (p *stealPool) get(w int) (task, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.stopped {
			return task{}, false
		}
		// A taken slot is cleared, so a finished chunk's tile (its layout
		// window and candidates) is not kept alive by the deque.
		if n := len(p.deques[w]); n > 0 {
			t := p.deques[w][n-1]
			p.deques[w][n-1] = task{}
			p.deques[w] = p.deques[w][:n-1]
			return t, true
		}
		if p.next < p.grid.n {
			t := task{tile: p.grid.tile(p.next)}
			p.next++
			p.pending++
			return t, true
		}
		// Steal the oldest task from the fullest sibling.
		victim := -1
		for i, d := range p.deques {
			if i != w && len(d) > 0 && (victim < 0 || len(d) > len(p.deques[victim])) {
				victim = i
			}
		}
		if victim >= 0 {
			t := p.deques[victim][0]
			p.deques[victim][0] = task{}
			p.deques[victim] = p.deques[victim][1:]
			return t, true
		}
		if p.pending == 0 {
			return task{}, false
		}
		p.cond.Wait()
	}
}

// finish marks one task obtained from get as fully handled (its tile
// split, replayed or extracted with its chunks pushed, or its chunk
// classified). When the last task finishes, parked workers are released:
// they park only once the grid is drained, so none is left waiting.
func (p *stealPool) finish() {
	p.mu.Lock()
	p.pending--
	done := p.pending == 0
	p.mu.Unlock()
	if done {
		p.cond.Broadcast()
	}
}

// stop aborts the scan: parked and future get calls return ok=false.
// In-flight tasks finish on their own.
func (p *stealPool) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
