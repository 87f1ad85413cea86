package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hotspot/internal/obs"
	"hotspot/internal/simd"
)

// obsFlags adds the shared observability flags to train/detect.
func obsFlags(fs *flag.FlagSet) (stats *bool, verbose *bool, debugAddr *string) {
	stats = fs.Bool("stats", false, "print per-stage wall times, counters, and histograms after the run")
	verbose = fs.Bool("v", false, "stream per-round training progress to stderr")
	debugAddr = fs.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	return stats, verbose, debugAddr
}

// obsSetup wires the observability flags into a config-shaped registry and
// progress callback, and starts the debug server when requested. The
// returned registry is nil when no flag needs one (keeping the zero-cost
// disabled path). The caller owns printing via printObservability.
func obsSetup(stats, verbose bool, debugAddr string) (*obs.Registry, func(obs.Event), error) {
	var reg *obs.Registry
	if stats || debugAddr != "" {
		reg = obs.NewRegistry()
	}
	if debugAddr != "" {
		if err := startDebugServer(debugAddr, reg); err != nil {
			return nil, nil, err
		}
	}
	var progress func(obs.Event)
	if verbose {
		progress = func(e obs.Event) {
			if e.Kernel >= 0 {
				fmt.Fprintf(os.Stderr, "[%8s] %s kernel=%d round=%d items=%d C=%g gamma=%g acc=%.3f\n",
					e.Elapsed.Round(time.Millisecond), e.Stage, e.Kernel, e.Round, e.Items, e.C, e.Gamma, e.Accuracy)
			} else {
				fmt.Fprintf(os.Stderr, "[%8s] %s round=%d items=%d C=%g gamma=%g acc=%.3f\n",
					e.Elapsed.Round(time.Millisecond), e.Stage, e.Round, e.Items, e.C, e.Gamma, e.Accuracy)
			}
		}
	}
	return reg, progress, nil
}

// startDebugServer publishes the registry as expvar and serves pprof +
// expvar on addr in the background. An explicit mux (rather than the
// net/http/pprof default-mux side effect) keeps the served surface to
// exactly the debug endpoints.
func startDebugServer(addr string, reg *obs.Registry) error {
	reg.PublishExpvar("hotspot")
	simd.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server: %w", err)
	}
	fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof/ and http://%s/debug/vars\n", ln.Addr(), ln.Addr())
	go http.Serve(ln, mux) //nolint:errcheck // background best-effort server
	return nil
}

// printObservability renders the post-run observability report to w: the
// training and detection stage tables plus the registry snapshot.
func printObservability(w io.Writer, trainTel, detectTel *obs.Telemetry, reg *obs.Registry) {
	fmt.Fprintf(w, "simd dispatch: %s\n", simd.Active())
	if trainTel != nil && len(trainTel.Stages)+len(trainTel.Counters) > 0 {
		fmt.Fprintln(w, "training stages:")
		fmt.Fprintln(w, trainTel.String())
	}
	if detectTel != nil && len(detectTel.Stages)+len(detectTel.Counters) > 0 {
		fmt.Fprintln(w, "detection stages:")
		fmt.Fprintln(w, detectTel.String())
	}
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		width := 0
		for name := range snap.Counters {
			if len(name) > width {
				width = len(name)
			}
		}
		for _, name := range sortedKeys(snap.Counters) {
			fmt.Fprintf(w, "  %-*s %12d\n", width, name, snap.Counters[name])
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		width := 0
		for name := range snap.Histograms {
			if len(name) > width {
				width = len(name)
			}
		}
		for _, name := range sortedKeys(snap.Histograms) {
			h := snap.Histograms[name]
			unit := histUnit(name)
			fmt.Fprintf(w, "  %-*s n=%-5d p50=%-10s p95=%-10s max=%s\n",
				width, name, h.Count, unit(h.P50), unit(h.P95), unit(h.Max))
		}
	}
}

// histUnit returns the formatter for a histogram's samples. Histograms
// whose name ends in "seconds" hold durations; the rest hold plain
// quantities such as bytes per clip or batch sizes.
func histUnit(name string) func(float64) string {
	if strings.HasSuffix(name, "seconds") {
		return seconds
	}
	return plain
}

func seconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

func plain(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
