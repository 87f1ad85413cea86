// Package dist implements the distributed full-chip scan coordinator: it
// partitions the tile grid of internal/scan into contiguous shard bands
// (whole tile rows, so each band's tiles are exactly the global grid's),
// dispatches the bands to a fleet of hotspotd backends over the /v1/scan
// window extension, and merges the returned candidate sets through the
// canonical seam dedup (scan.MergeSeams) and the shared report assembly
// (core.Detector.ReportFromScan) so the merged report is identical to a
// local core.ScanTiled run at any shard count and any fleet size.
//
// Robustness is first-class:
//
//   - every shard attempt runs under its own deadline (Options.ShardTimeout);
//   - transient failures (429 with Retry-After honored, 5xx, attempt
//     timeouts) retry in place with exponential backoff plus jitter;
//   - connection failures (refused, reset, mid-stream drops) mark the
//     backend down immediately and re-dispatch the shard to a survivor;
//   - down backends accumulate a failure score and are health-probed
//     (GET /readyz) before rejoining the rotation;
//   - when every backend is down, remaining shards degrade gracefully to
//     the local tiled path (unless Options.NoLocalFallback), so the scan
//     still completes with an identical report;
//   - a shard is re-dispatched at most maxRedispatches times; one that
//     fails on backends that keep answering /readyz (every attempt past
//     ShardTimeout, say) is then evaluated locally the same way, or fails
//     the scan with a *RedispatchError under Options.NoLocalFallback;
//   - a backend that returns a candidate anchored outside the shard it
//     was sent breaks the window contract; the scan fails naming it, and
//     the shard's set is neither merged nor stored.
//
// Shard evaluation is pure and idempotent, which is what makes re-dispatch
// after a mid-stream drop safe: a shard that was half-served on a dying
// backend re-executes anywhere with a bit-identical result.
//
// The same purity powers the coordinator-side incremental cache
// (Options.Store): each shard's merged candidates are remembered in a
// content-addressed tile result store under a scan.ShardKey — the shard
// window plus its halo geometry, snap-base-relative, tagged with the tile
// side — so a fleet re-scan of a lightly edited chip dispatches only the
// shards whose geometry changed and splices the cached candidates of the
// rest straight into the merge. Caching is at shard granularity (not tile)
// because a backend returns one seam-deduplicated set per shard; the
// merged report stays byte-identical to a cold run because the cached sets
// are the very sets a backend would return. The store must be opened under
// the coordinator detector's ModelDigest (core.Detector.OpenStore), which
// also guards against a drifted fleet: backends serving a different model
// are a deployment error regardless of caching. Each shard is written to
// the store as it completes, so the store is also how a killed
// coordinator resumes: a re-run against it ships only the shards the
// killed run did not finish.
package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/obs"
	"hotspot/internal/scan"
)

// ErrAllBackendsDown reports that every configured backend was (or became)
// unreachable and local fallback was disabled, so undispatched shards
// remain. The partial report returned alongside it covers the shards that
// did complete.
var ErrAllBackendsDown = errors.New("dist: all backends down")

// maxRedispatches caps how many times one shard is re-queued after a
// backend failed it. Past the cap the shard is not sent again: a backend
// that times out on it is revived by its next /readyz answer, so without a
// cap the shard would circle the fleet until the caller's context ended.
const maxRedispatches = 3

// RedispatchError reports a shard that failed on a backend once more than
// maxRedispatches allows, in a scan with local fallback disabled.
type RedispatchError struct {
	// Shard is the shard window.
	Shard geom.Rect
	// Err is the last backend failure.
	Err error
}

func (e *RedispatchError) Error() string {
	return fmt.Sprintf("dist: shard %v failed %d dispatches: %v", e.Shard, maxRedispatches+1, e.Err)
}

func (e *RedispatchError) Unwrap() error { return e.Err }

// Default robustness parameters; see the matching Options fields.
const (
	DefaultShardsPerBackend = 4
	DefaultShardTimeout     = 5 * time.Minute
	DefaultRetries          = 3
	DefaultBackoffBase      = 100 * time.Millisecond
	DefaultBackoffMax       = 5 * time.Second
	DefaultProbeInterval    = 500 * time.Millisecond
	DefaultProbeAttempts    = 3
)

// Options parameterizes a distributed scan. Only Backends is required;
// every zero field gets the matching default.
type Options struct {
	// Backends are the hotspotd instances to dispatch shards to, as
	// host:port or full http:// URLs. All backends must serve the same
	// model as the coordinator's detector, or the merged report is
	// meaningless. Empty means "run every shard locally".
	Backends []string
	// Shards is the number of contiguous tile-row bands to cut the grid
	// into; 0 picks DefaultShardsPerBackend per backend. The count is
	// clamped to the number of tile rows. More shards mean finer-grained
	// failover and load balancing at the cost of more halo overlap on the
	// wire.
	Shards int
	// Tile is the tile side in dbu; 0 picks the scan package default. It
	// must match between coordinator and backends, which is why the
	// coordinator sends it explicitly with every shard.
	Tile geom.Coord
	// PerBackend is how many shards one backend evaluates concurrently
	// (default 1; hotspotd's own scan concurrency limit backpressures
	// anything beyond its capacity with 429s, which retry politely).
	PerBackend int
	// ShardTimeout is the per-attempt deadline of one shard dispatch.
	ShardTimeout time.Duration
	// Retries is how many times a transiently failing attempt (429, 5xx,
	// timeout) retries on the same backend before the backend is declared
	// down and the shard re-dispatched.
	Retries int
	// BackoffBase and BackoffMax bound the exponential retry backoff;
	// jitter spreads coordinated retries.
	BackoffBase, BackoffMax time.Duration
	// ProbeInterval spaces the /readyz health probes of a down backend;
	// ProbeAttempts bounds them before the backend is abandoned for the
	// rest of the scan.
	ProbeInterval time.Duration
	ProbeAttempts int
	// Store, when non-nil, is the coordinator-side tile result store:
	// shards whose ShardKey hits the store are spliced from cache instead
	// of dispatched, and freshly completed shards are written back. Open
	// it with core.Detector.OpenStore so its digest matches the model the
	// fleet serves; the caller owns its lifecycle. The store persists
	// across scans and layout edits, and re-running an interrupted scan
	// against it resumes that scan.
	Store *scan.Store
	// NoLocalFallback disables the graceful degradation that evaluates
	// leftover shards on the coordinator when every backend is down; the
	// scan then fails with ErrAllBackendsDown instead.
	NoLocalFallback bool
	// LocalWorkers bounds the tile workers of locally evaluated shards
	// (fallback path); 0 uses the detector's configured worker count.
	LocalWorkers int
	// Obs receives the coordinator's counters (dist.shards_done,
	// dist.retries, dist.backend_down, ...); nil disables them.
	Obs *obs.Registry
	// Client is the HTTP client for shard dispatch and health probes
	// (default: a dedicated client with sane keep-alive defaults).
	Client *http.Client

	// sleep and jitter are test seams: sleep pauses between retries and
	// probes (nil: real timer, aborted by context or scan completion),
	// jitter yields the backoff spread factor in [0,1) (nil: math/rand).
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func() float64
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = DefaultShardsPerBackend * max(1, len(o.Backends))
	}
	if o.PerBackend <= 0 {
		o.PerBackend = 1
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = DefaultShardTimeout
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = DefaultRetries
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.ProbeAttempts <= 0 {
		o.ProbeAttempts = DefaultProbeAttempts
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.jitter == nil {
		o.jitter = rand.Float64
	}
	return o
}

// BackendStatus is one backend's scorecard at the end of a scan.
type BackendStatus struct {
	// Addr is the backend's base URL.
	Addr string
	// Shards counts the shards this backend completed.
	Shards int
	// Failures counts failed attempts charged to this backend (transient
	// retries and connection failures alike).
	Failures int
	// Down reports whether the backend ended the scan out of rotation.
	Down bool
}

// Stats reports a distributed scan's orchestration counters.
type Stats struct {
	// Shards is the planned shard count; ShardsDone of those completed
	// (including cached, empty, and locally evaluated ones).
	Shards, ShardsDone int
	// ShardsRemote were served by backends; ShardsLocal ran on the
	// coordinator (fallback); ShardsEmpty held no geometry and were
	// skipped outright; ShardsCached were spliced from the tile result
	// store without being dispatched.
	ShardsRemote, ShardsLocal, ShardsEmpty, ShardsCached int
	// Store summarizes the coordinator-side tile result store; absent
	// without one.
	Store *scan.StoreStats
	// Retries counts in-place transient retries; Redispatches counts
	// shards re-queued off a dead backend onto a survivor.
	Retries, Redispatches int
	// Tiles aggregates the per-shard tile counters (remote and local).
	Tiles core.ScanStats
	// Backends is the per-backend scorecard.
	Backends []BackendStatus
}

// Scan runs a distributed tiled scan of l across opts.Backends using det
// as the reference model (shard planning, local fallback, and final report
// assembly). The returned report is identical to det.ScanTiled(l, ...) for
// the same tile side — locked by TestScanDistributedMatchesLocal — except
// for Runtime and Telemetry, which measure this run. On failure the
// partial report accumulated so far is returned with the error; with a
// store, completed shards remain in it for a later run to reuse.
func Scan(ctx context.Context, det *core.Detector, l *layout.Layout, opts Options) (core.Report, Stats, error) {
	start := time.Now()
	opts = opts.withDefaults()
	var rep core.Report
	var stats Stats

	cfg := det.Config()
	if err := cfg.Spec.Validate(); err != nil {
		return rep, stats, err
	}
	tile := opts.Tile
	if tile == 0 {
		tile = scan.DefaultTileFactor * cfg.Spec.ClipSide
	}
	if tile < cfg.Spec.CoreSide {
		return rep, stats, fmt.Errorf("dist: tile side %d below core side %d", tile, cfg.Spec.CoreSide)
	}
	gb := l.GeometryBounds()
	snap := geom.Pt(gb.X0, gb.Y0)
	cfg.Requirements.SnapBase = snap

	shards := shardBands(l.Bounds, tile, opts.Shards)
	if len(shards) == 0 {
		return rep, stats, fmt.Errorf("dist: layout %q has empty bounds", l.Name)
	}

	c := &coordinator{
		det:   det,
		l:     l,
		cfg:   cfg,
		opts:  opts,
		tile:  tile,
		snap:  snap,
		halo:  cfg.Spec.CoreSide + cfg.Spec.Ambit(),
		reg:   opts.Obs,
		queue: make(chan geom.Rect, len(shards)),
		done:  make(chan struct{}),
		gone:  make(chan struct{}),
	}
	c.stats.Shards = len(shards)
	scanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	c.cancel = cancel
	c.reg.Counter("dist.scans").Inc()

	// Enqueue the work: geometry-free shards complete outright, store
	// hits splice from cache, and the rest go to the dispatch queue. Store
	// keys are computed here, once, in the single-goroutine setup phase;
	// workers only read them.
	c.store = opts.Store
	c.moveCell = cfg.Requirements.SnapGrid <= 0
	for _, sh := range shards {
		rects := l.Query(cfg.Layer, sh.Expand(c.halo), nil)
		if len(rects) == 0 {
			c.complete(sh, nil, core.ScanStats{}, shardEmpty)
			continue
		}
		if c.store != nil {
			key := scan.ShardKey(sh, rects, snap, tile)
			if c.keys == nil {
				c.keys = map[geom.Rect]string{}
			}
			c.keys[sh] = key
			if rel, ok := c.store.Get(key); ok {
				c.reg.Counter("dist.shards_cached").Inc()
				c.complete(sh, scan.RelocateCandidates(rel, snap.X, snap.Y, c.moveCell), core.ScanStats{}, shardCached)
				continue
			}
		}
		c.pending++
		c.queue <- sh
	}

	backends := make([]*backend, len(opts.Backends))
	for i, addr := range opts.Backends {
		backends[i] = newBackend(addr)
	}
	var wg sync.WaitGroup
	if c.pending > 0 {
		sp := obs.Begin(&rep.Telemetry, c.reg, "dist.shards")
		c.alive = len(backends) * opts.PerBackend
		for _, b := range backends {
			for j := 0; j < opts.PerBackend; j++ {
				wg.Add(1)
				go func(b *backend) {
					defer wg.Done()
					c.worker(scanCtx, b)
				}(b)
			}
		}
		if len(backends) == 0 {
			c.drainLocal(scanCtx)
		} else {
			select {
			case <-c.done:
			case <-c.gone:
				// Every backend worker exited with shards remaining:
				// degrade to the local tiled path (or fail).
				c.drainLocal(scanCtx)
			case <-scanCtx.Done():
				c.fail(scanCtx.Err())
			}
		}
		wg.Wait()
		sp.AddItems(int64(c.stats.ShardsDone))
		sp.End()
	}

	c.mu.Lock()
	merged := scan.MergeSeams(c.cands)
	fatal := c.fatal
	stats = c.stats
	c.mu.Unlock()
	for _, b := range backends {
		stats.Backends = append(stats.Backends, b.status())
	}
	if opts.Store != nil {
		ss := opts.Store.Stats()
		stats.Store = &ss
	}

	c.reg.Counter("dist.candidates").Add(int64(len(merged)))
	tel := &rep.Telemetry
	tel.AddCounter("dist.shards", int64(stats.Shards))
	tel.AddCounter("dist.shards_local", int64(stats.ShardsLocal))
	tel.AddCounter("dist.retries", int64(stats.Retries))
	tel.AddCounter("dist.redispatches", int64(stats.Redispatches))

	aerr := det.ReportFromScan(&rep, merged, l, fatal == nil)
	rep.Runtime = time.Since(start)
	if fatal != nil {
		c.reg.Counter("dist.scans_failed").Inc()
		return rep, stats, fatal
	}
	if aerr != nil {
		return rep, stats, aerr
	}
	return rep, stats, nil
}

// coordinator is one distributed scan's shared dispatch state.
type coordinator struct {
	det  *core.Detector
	l    *layout.Layout
	cfg  core.Config
	opts Options
	tile geom.Coord
	snap geom.Point
	halo geom.Coord
	reg  *obs.Registry
	// store is the coordinator-side shard result cache; keys maps each
	// shard window to its content key (computed once during enqueue,
	// read-only afterwards). moveCell mirrors clip.KeyFor's coordinate
	// frame: with snap-grid dedup disabled, dedup cells are absolute
	// anchors and relocate with the candidates.
	store    *scan.Store
	keys     map[geom.Rect]string
	moveCell bool

	queue  chan geom.Rect
	done   chan struct{} // closed when every shard completed or a fatal error hit
	gone   chan struct{} // closed when the last backend worker exited
	cancel context.CancelFunc

	mu         sync.Mutex
	pending    int // shards not yet completed (queued or in flight)
	alive      int // backend workers still running
	cands      []scan.Candidate
	fatal      error
	doneClosed bool
	goneClosed bool
	stats      Stats
	// dispatches counts each shard's failed backend dispatches.
	dispatches map[geom.Rect]int
}

type shardKind int

const (
	shardRemote shardKind = iota
	shardLocal
	shardEmpty
	shardCached
)

// worker is one backend dispatch loop: pull a shard, execute it with
// retries, and either record the result or mark the backend down and
// re-queue the shard for a survivor. A worker whose backend cannot be
// revived by health probes exits; when the last worker exits with work
// remaining, the coordinator degrades to the local path.
func (c *coordinator) worker(ctx context.Context, b *backend) {
	defer c.workerExit()
	for {
		if !b.isUp() {
			if !c.revive(ctx, b) {
				return
			}
		}
		select {
		case <-c.done:
			return
		case <-ctx.Done():
			c.fail(ctx.Err())
			return
		case sh := <-c.queue:
			cands, tiles, err := c.execShard(ctx, b, sh)
			switch {
			case err == nil:
				b.noteShard()
				c.complete(sh, cands, tiles, shardRemote)
			case errors.Is(err, errBackendDown):
				c.reg.Counter("dist.backend_down").Inc()
				b.markDown()
				if c.requeue(sh) {
					continue
				}
				if c.opts.NoLocalFallback {
					c.fail(&RedispatchError{Shard: sh, Err: err})
					return
				}
				if !c.scanLocal(ctx, sh) {
					return
				}
			default:
				c.fail(err)
				return
			}
		}
	}
}

// execShard runs one shard on one backend: in-place backoff retries for
// transient failures, immediate errBackendDown for connection-class
// failures or exhausted retries.
func (c *coordinator) execShard(ctx context.Context, b *backend, sh geom.Rect) ([]scan.Candidate, core.ScanStats, error) {
	var zero core.ScanStats
	rects := c.l.Query(c.cfg.Layer, sh.Expand(c.halo), nil)
	for attempt := 0; ; attempt++ {
		cands, tiles, err := c.postShard(ctx, b, sh, rects)
		if err == nil {
			b.noteSuccess()
			return cands, tiles, nil
		}
		if ctx.Err() != nil {
			return nil, zero, ctx.Err()
		}
		b.noteFailure()
		var se *shardError
		if !errors.As(err, &se) || se.class == failFatal {
			return nil, zero, err
		}
		if se.class == failConn {
			return nil, zero, fmt.Errorf("%w: %s: %v", errBackendDown, b.base, err)
		}
		// Transient: retry in place with backoff, unless exhausted.
		if attempt >= c.opts.Retries {
			return nil, zero, fmt.Errorf("%w: %s: retries exhausted: %v", errBackendDown, b.base, err)
		}
		c.reg.Counter("dist.retries").Inc()
		c.mu.Lock()
		c.stats.Retries++
		c.mu.Unlock()
		if err := c.pause(ctx, c.backoff(attempt, se.retryAfter)); err != nil {
			return nil, zero, err
		}
	}
}

// backoff computes the attempt'th retry delay: exponential from
// BackoffBase capped at BackoffMax, jittered across [d/2, d), floored at
// the server's Retry-After when one was sent.
func (c *coordinator) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.opts.BackoffBase << attempt
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	d = d/2 + time.Duration(c.opts.jitter()*float64(d/2))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// pause sleeps for d, aborting on context cancellation or scan completion
// (a fatal error elsewhere should not leave a worker dozing).
func (c *coordinator) pause(ctx context.Context, d time.Duration) error {
	if c.opts.sleep != nil {
		return c.opts.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.done:
		return errors.New("dist: scan finished")
	case <-t.C:
		return nil
	}
}

// revive health-probes a down backend until it answers ready, the probe
// budget runs out (backend abandoned: returns false), or the scan ends.
func (c *coordinator) revive(ctx context.Context, b *backend) bool {
	for i := 0; i < c.opts.ProbeAttempts; i++ {
		select {
		case <-c.done:
			return false
		default:
		}
		if b.probe(ctx, c.opts.Client) == nil {
			c.reg.Counter("dist.backend_up").Inc()
			b.markUp()
			return true
		}
		if c.pause(ctx, c.opts.ProbeInterval) != nil {
			return false
		}
	}
	return false
}

// drainLocal evaluates every queued shard on the coordinator through the
// local tiled path — the graceful-degradation tail when no backend
// remains — unless local fallback is disabled, which fails the scan.
func (c *coordinator) drainLocal(ctx context.Context) {
	for {
		c.mu.Lock()
		pending, fatal := c.pending, c.fatal
		c.mu.Unlock()
		if pending == 0 || fatal != nil {
			return
		}
		if c.opts.NoLocalFallback {
			c.fail(fmt.Errorf("%w: %d shards undispatched", ErrAllBackendsDown, pending))
			return
		}
		select {
		case sh := <-c.queue:
			if !c.scanLocal(ctx, sh) {
				return
			}
		default:
			// Unreachable while the invariant holds: with no workers
			// alive, every pending shard sits in the queue.
			c.fail(fmt.Errorf("dist: internal: %d shards pending but none queued", pending))
			return
		}
	}
}

// scanLocal evaluates one shard on the coordinator and records it; on
// failure it fails the scan and returns false.
func (c *coordinator) scanLocal(ctx context.Context, sh geom.Rect) bool {
	c.reg.Counter("dist.shards_local").Inc()
	cands, st, err := c.det.ScanShardContext(ctx, c.l, sh, c.snap, core.ScanOptions{
		Tile: c.tile, Workers: c.opts.LocalWorkers,
	})
	if err != nil {
		c.fail(err)
		return false
	}
	c.complete(sh, cands, st, shardLocal)
	return true
}

// complete records one finished shard: write it back to the store, fold
// its candidates and tile counters in, and close done when it was the
// last.
func (c *coordinator) complete(sh geom.Rect, cands []scan.Candidate, tiles core.ScanStats, kind shardKind) {
	if c.store != nil && (kind == shardRemote || kind == shardLocal) {
		rel := scan.RelocateCandidates(cands, -c.snap.X, -c.snap.Y, c.moveCell)
		if err := c.store.Put(c.keys[sh], rel); err != nil {
			c.fail(err)
			return
		}
	}
	c.reg.Counter("dist.shards_done").Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cands = append(c.cands, cands...)
	c.stats.ShardsDone++
	switch kind {
	case shardRemote:
		c.stats.ShardsRemote++
	case shardLocal:
		c.stats.ShardsLocal++
	case shardEmpty:
		c.stats.ShardsEmpty++
	case shardCached:
		c.stats.ShardsCached++
	}
	c.stats.Tiles.TilesTotal += tiles.TilesTotal
	c.stats.Tiles.TilesDone += tiles.TilesDone
	c.stats.Tiles.TilesSplit += tiles.TilesSplit
	if kind != shardEmpty && kind != shardCached {
		c.pending--
		if c.pending == 0 && !c.doneClosed {
			c.doneClosed = true
			close(c.done)
		}
	}
}

// requeue puts a shard back on the dispatch queue after its backend
// failed it, and reports false without requeueing once the shard has been
// re-dispatched maxRedispatches times. Capacity is guaranteed (a shard
// occupies at most one queue slot).
func (c *coordinator) requeue(sh geom.Rect) bool {
	c.mu.Lock()
	if c.dispatches == nil {
		c.dispatches = map[geom.Rect]int{}
	}
	c.dispatches[sh]++
	if c.dispatches[sh] > maxRedispatches {
		c.mu.Unlock()
		return false
	}
	c.stats.Redispatches++
	c.mu.Unlock()
	c.reg.Counter("dist.redispatches").Inc()
	c.queue <- sh
	return true
}

// fail records the scan's first fatal error, wakes every waiter, and
// cancels in-flight work.
func (c *coordinator) fail(err error) {
	c.mu.Lock()
	if c.fatal == nil && err != nil {
		c.fatal = err
		if !c.doneClosed {
			c.doneClosed = true
			close(c.done)
		}
	}
	c.mu.Unlock()
	c.cancel()
}

// workerExit retires one backend worker; the last one out signals the
// coordinator that no remote capacity remains.
func (c *coordinator) workerExit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alive--
	if c.alive == 0 && !c.goneClosed {
		c.goneClosed = true
		close(c.gone)
	}
}

// shardBands partitions bounds into at most n contiguous horizontal bands
// aligned to the tile grid: every band boundary falls on a whole tile row,
// so a backend tiling one band with the same tile side reproduces exactly
// the global grid's tiles inside it. Bands are balanced to within one tile
// row of each other.
func shardBands(bounds geom.Rect, tile geom.Coord, n int) []geom.Rect {
	if bounds.Empty() {
		return nil
	}
	rows := int((int64(bounds.H()) + int64(tile) - 1) / int64(tile))
	if n > rows {
		n = rows
	}
	if n < 1 {
		n = 1
	}
	out := make([]geom.Rect, 0, n)
	r0 := 0
	for i := 0; i < n; i++ {
		r1 := r0 + (rows-r0)/(n-i)
		y1 := bounds.Y1
		if y := int64(bounds.Y0) + int64(r1)*int64(tile); y < int64(y1) {
			y1 = geom.Coord(y)
		}
		out = append(out, geom.Rect{
			X0: bounds.X0,
			Y0: bounds.Y0 + geom.Coord(r0)*tile,
			X1: bounds.X1,
			Y1: y1,
		})
		r0 = r1
	}
	return out
}
