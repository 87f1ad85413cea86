package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hotspot/internal/core"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/scan"
)

// errBackendDown classifies a shard failure that retires the backend: the
// shard re-queues for a survivor instead of failing the scan.
var errBackendDown = errors.New("dist: backend down")

// failClass buckets shard-attempt failures by their remedy.
type failClass int

const (
	// failTransient retries in place with backoff: 429 backpressure, 5xx
	// other than a worker panic, or a per-attempt timeout. The backend is
	// alive, just not ready.
	failTransient failClass = iota
	// failConn retires the backend immediately: connection refused/reset,
	// a mid-stream drop, or a torn response body. Retrying a dying
	// process in place only burns the retry budget.
	failConn
	// failFatal fails the whole scan: the backend understood the request
	// and rejected it (4xx), a worker panicked evaluating it (500 with a
	// scan.PanicPrefix message: the same shard panics again on any
	// backend), or it answered with candidates outside the shard window,
	// which no amount of retrying fixes — the coordinator and backend
	// disagree about the contract. Such a backend still answers /readyz,
	// so retiring and reviving it would only loop.
	failFatal
)

// shardError is one failed shard attempt with its classification.
type shardError struct {
	class      failClass
	status     int           // HTTP status, 0 for transport failures
	retryAfter time.Duration // server-requested backoff floor (429)
	err        error
}

func (e *shardError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("dist: shard attempt: HTTP %d: %v", e.status, e.err)
	}
	return fmt.Sprintf("dist: shard attempt: %v", e.err)
}

func (e *shardError) Unwrap() error { return e.err }

// scanShardRequest mirrors the server's scanRequest wire format for a
// windowed (shard) scan. Rects are the WHOLE rectangles intersecting the
// shard's halo-expanded window, never clipped to it: clip dissection
// derives anchors from each rectangle's true extent, so a clipped edge
// would shift anchors and break the byte-identical merge.
type scanShardRequest struct {
	Name     string          `json:"name,omitempty"`
	Layer    *layout.Layer   `json:"layer,omitempty"`
	Rects    [][4]geom.Coord `json:"rects"`
	Tile     geom.Coord      `json:"tile,omitempty"`
	Window   *[4]geom.Coord  `json:"window"`
	SnapBase *[2]geom.Coord  `json:"snap_base"`
}

// scanShardResponse is the subset of the server's scanResponse the
// coordinator consumes.
type scanShardResponse struct {
	Tiles      *core.ScanStats  `json:"tiles"`
	Candidates []scan.Candidate `json:"candidates"`
}

// errorBody is the server's error payload.
type errorBody struct {
	Error string `json:"error"`
}

// postShard executes one shard attempt against one backend under the
// per-attempt deadline. Failures come back as *shardError (classified) or
// the context's error when the scan itself is done. Every returned
// candidate must be anchored inside the shard window: the coordinator
// merges and stores the set as the shard's result, so one stray anchor
// would corrupt this report and every later run against the store.
func (c *coordinator) postShard(ctx context.Context, b *backend, sh geom.Rect, rects []geom.Rect) ([]scan.Candidate, core.ScanStats, error) {
	var zero core.ScanStats
	layer := c.cfg.Layer
	req := scanShardRequest{
		Name:     c.l.Name,
		Layer:    &layer,
		Rects:    make([][4]geom.Coord, len(rects)),
		Tile:     c.tile,
		Window:   &[4]geom.Coord{sh.X0, sh.Y0, sh.X1, sh.Y1},
		SnapBase: &[2]geom.Coord{c.snap.X, c.snap.Y},
	}
	for i, r := range rects {
		req.Rects[i] = [4]geom.Coord{r.X0, r.Y0, r.X1, r.Y1}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, zero, &shardError{class: failFatal, err: err}
	}

	actx, cancel := context.WithTimeout(ctx, c.opts.ShardTimeout)
	defer cancel()
	// Ask the backend to bound its own work the same way (the server only
	// ever tightens its deadline from this, never loosens it).
	url := b.base + "/v1/scan?timeout=" + c.opts.ShardTimeout.String()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, zero, &shardError{class: failFatal, err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")

	resp, err := c.opts.Client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, zero, ctx.Err()
		}
		if errors.Is(err, context.DeadlineExceeded) {
			// The attempt deadline fired: the backend may just be slow or
			// loaded, so this retries in place rather than retiring it.
			return nil, zero, &shardError{class: failTransient, err: err}
		}
		return nil, zero, &shardError{class: failConn, err: err}
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb) //nolint:errcheck // best-effort detail
		herr := fmt.Errorf("%s", eb.Error)
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return nil, zero, &shardError{
				class:      failTransient,
				status:     resp.StatusCode,
				retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
				err:        herr,
			}
		case resp.StatusCode == http.StatusInternalServerError && strings.HasPrefix(eb.Error, scan.PanicPrefix):
			return nil, zero, &shardError{class: failFatal, status: resp.StatusCode, err: herr}
		case resp.StatusCode >= 500:
			return nil, zero, &shardError{class: failTransient, status: resp.StatusCode, err: herr}
		default:
			return nil, zero, &shardError{class: failFatal, status: resp.StatusCode, err: herr}
		}
	}

	var sr scanShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		if ctx.Err() != nil {
			return nil, zero, ctx.Err()
		}
		// A torn body is a mid-stream drop: the backend died while
		// streaming. Shard evaluation is idempotent, so re-dispatching the
		// whole shard elsewhere is safe.
		return nil, zero, &shardError{class: failConn, err: fmt.Errorf("decoding response: %w", err)}
	}
	for _, cand := range sr.Candidates {
		if !sh.Contains(cand.At) {
			return nil, zero, &shardError{class: failFatal,
				err: fmt.Errorf("backend %s returned a candidate at %v outside shard %v", b.base, cand.At, sh)}
		}
	}
	st := zero
	if sr.Tiles != nil {
		st = *sr.Tiles
	}
	return sr.Candidates, st, nil
}

// parseRetryAfter reads a Retry-After header's delay-seconds form (the
// only form hotspotd emits); HTTP-date or garbage yields 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
