package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotspot/internal/core"
)

// handBuiltModel is a one-kernel model written by hand rather than
// trained: its kernel decides a little above zero for every clip, and its
// one-slot feedback kernel never reclaims, so every extracted clip is
// reported and scans run removal. Loading it takes microseconds, where
// training the package fixture would stall fuzz workers.
const handBuiltModel = `{"version":2,
"config":{"Spec":{"CoreSide":1200,"ClipSide":4800},"Layer":1,"InitialC":1000,"InitialGamma":0.01,
 "MaxSelfIter":6,"TrainAccuracy":0.9,"ShiftNM":120,
 "Topo":{"DensityGrid":12,"R0":0.5,"K":10,"RecalcCentroid":true,"LiteralMatching":false},
 "EnableTopo":true,"EnableFeedback":true,"EnableRemoval":true,"BasicSlots":24,
 "Requirements":{"MinDensity":0.02,"MaxDensity":0,"MinPolyCount":1,"MaxBorderDist":1440,"SnapGrid":600,"SnapBase":{"X":0,"Y":0}},
 "MergeMinOverlap":0.2,"ReframeSep":1150,"ReframeThreshold":4,"FeedbackMargin":1.5,"FeedbackWeightPos":2,
 "FeedbackOverride":0.5,"MaxKernels":64,"MaxCentroids":384,"RouteK":0,"DisablePrescreen":false,"Bias":0,
 "Workers":1,"GroupParams":null},
"stats":{"HotspotClusters":0,"NonHotspotClusters":0,"UpsampledHS":0,"NonHotspotCentroids":0,"FeedbackExtras":0,"SelfIters":0},
"kernels":[{"key":"a","slots":null,"centroid":{"N":0,"D":null},
 "svm":{"svs":[[0.2,0.2,0.1,0.1,0.3],[0.5,0.4,0.2,0.3,0.6]],"coef":[0.1,0.1],"rho":-0.1,"gamma":0.5},
 "scaler":{"Min":[0,0,0,0,0],"Max":[16,16,1200,1200,1]}}],
"feedback":{"svs":[[0,0,0,0,0,0.2,0.2,0.1,0.1,0.3]],"coef":[-1],"rho":0,"gamma":0.5,
 "scaler":{"Min":[0,0,0,0,0,0,0,0,0,0],"Max":[1,1,1,1,1,16,16,1200,1200,1]}},
"feedback_slots":1}`

// hostileTimeout is the request timeout of the hostile-body server, and
// hostileSlack how much later than it an answer may come.
const (
	hostileTimeout = 2 * time.Second
	hostileSlack   = 3 * time.Second
)

// hostileServer serves handBuiltModel with a 4 KiB body cap and a 2 s
// request timeout.
func hostileServer(t testing.TB) *Server {
	t.Helper()
	det, err := core.Load(strings.NewReader(handBuiltModel))
	if err != nil {
		t.Fatalf("loading the hand-built model: %v", err)
	}
	s, err := NewWithDetector(det, Config{MaxBodyBytes: 4 << 10, RequestTimeout: hostileTimeout, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// hostileBodies are /v1/scan bodies whose layouts a scan cannot tile or
// dissect without leaving the int32 coordinate range, or whose tile grid
// is above the ceiling at the tile side they ask for.
var hostileBodies = []struct{ name, body string }{
	{"near MaxInt32", `{"rects": [[2147482000,0,2147483647,100]]}`},
	{"near MaxInt32 tiled", `{"rects": [[2147482000,0,2147483647,100]], "tiled": true}`},
	{"wider than int32", `{"rects": [[-2000000000,-2000000000,-1999999000,-1999999900],[2000000000,2000000000,2000001000,2000000100]], "tiled": true}`},
	{"too many tiles", `{"rects": [[0,0,1000,100],[1000000000,1000000000,1000001000,1000000100]], "tiled": true, "tile": 38400}`},
	{"window near MaxInt32", `{"rects": [[2147482000,0,2147483647,100]], "window": [2147482000,0,2147483647,100], "snap_base": [2147482000,0]}`},
}

// hugeAreaBodies are /v1/scan bodies within the coordinate range whose
// one solid rectangle dissects into 1.67M qualifying pieces: monolithic,
// tiled at the default side, and as one 2 mm tile.
var hugeAreaBodies = []string{
	`{"rects": [[0,0,1200000,2000000]]}`,
	`{"rects": [[0,0,1200000,2000000]], "tiled": true}`,
	`{"rects": [[0,0,1200000,2000000]], "tiled": true, "tile": 2000000}`,
}

// TestScanStopsHugeAreaAtDeadline posts each huge-area body: extraction
// must stop at the request deadline, so the answer is 504 within the
// timeout plus slack. Before extraction checked its context, the
// monolithic body held the server for minutes.
func TestScanStopsHugeAreaAtDeadline(t *testing.T) {
	ts := httptest.NewServer(hostileServer(t).Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	for _, body := range hugeAreaBodies {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/scan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d, want 504", body, resp.StatusCode)
		}
		if d := time.Since(start); d > hostileTimeout+hostileSlack {
			t.Errorf("%s: answered after %v, want within %v", body, d, hostileTimeout+hostileSlack)
		}
	}
}

// TestScanRefusesHostileLayouts posts each hostile body and expects a
// prompt 400, after which the server must still be ready. Before the
// range checks, the first three ran the server out of memory.
func TestScanRefusesHostileLayouts(t *testing.T) {
	ts := httptest.NewServer(hostileServer(t).Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	for _, hb := range hostileBodies {
		start := time.Now()
		resp, err := client.Post(ts.URL+"/v1/scan", "application/json", strings.NewReader(hb.body))
		if err != nil {
			t.Fatalf("%s: %v", hb.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", hb.name, resp.StatusCode)
		}
		if d := time.Since(start); d > hostileTimeout {
			t.Errorf("%s: answered after %v, want well inside the %v timeout", hb.name, d, hostileTimeout)
		}
	}
	resp, err := client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after hostile bodies: status %d", resp.StatusCode)
	}
}

// FuzzScanRequest posts arbitrary bytes to /v1/scan. Whatever the body,
// the server must answer with a status the API documents for the route
// (200, 400, 413, 429, 503 or 504) within the request timeout plus slack,
// and must not panic. The seeds are the hostile and huge-area bodies plus
// window requests (empty and inverted windows included), snap_base, a
// tile below the core side, explicit tiling and an incremental opt-out.
func FuzzScanRequest(f *testing.F) {
	for _, hb := range hostileBodies {
		f.Add([]byte(hb.body))
	}
	for _, body := range hugeAreaBodies {
		f.Add([]byte(body))
	}
	for _, body := range []string{
		`{"rects":[[0,0,1200,200],[0,600,3000,800],[1400,0,1600,3000]]}`,
		`{"rects":[[0,0,1200,200]],"window":[0,0,38400,38400],"snap_base":[0,0]}`,
		`{"rects":[[0,0,1200,200]],"window":[0,0,0,0]}`,
		`{"rects":[[0,0,1200,200]],"window":[5000,5000,0,0]}`,
		`{"rects":[[0,0,1200,200]],"tiled":true,"tile":1199}`,
		`{"rects":[[0,0,1200,200]],"tiled":true,"tile":1200}`,
		`{"rects":[[0,0,1200,200]],"tiled":false,"incremental":false}`,
		`{"name":"n","layer":2,"rects":[[0,0,1200,200]]}`,
		`{"rects":[]}`,
		`{"rects":[[5,5,5,5]]}`,
		`{"rects":[[0,0,1200,200]]`,
	} {
		f.Add([]byte(body))
	}
	h := hostileServer(f).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/scan", bytes.NewReader(body))
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, req)
		}()
		select {
		case <-done:
		case <-time.After(hostileTimeout + hostileSlack):
			t.Fatalf("no answer within %v to %q", hostileTimeout+hostileSlack, body)
		}
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d (%s) for %q", rec.Code, rec.Body.Bytes(), body)
		}
	})
}
