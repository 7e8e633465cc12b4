// Package introspect exposes a runtime's performance counters over HTTP —
// the live-query surface HPX provides through its counter API and
// command-line interface ("HPX counters are easily accessible through an
// API at runtime", Sec. I-B), in the shape a Go operator expects:
//
//	GET /healthz                        liveness
//	GET /counters                       all counters as a JSON object
//	GET /counters?prefix=/threads/count filtered by name prefix
//	GET /counter/<name>                 one counter (name is the symbolic
//	                                    path, e.g. /counter/threads/idle-rate)
//	GET /counter?name=<escaped>         one counter by query parameter — use
//	                                    this for instance names containing
//	                                    '#' (a URL fragment delimiter)
//	GET /histogram/<name>               bucketed distribution of a histogram
//	GET /metrics                        OpenMetrics text exposition (the same
//	                                    exporter the daemons serve on /metrics)
//
// The handler only reads; it holds no locks across requests beyond the
// registry's own snapshotting.
package introspect

import (
	"encoding/json"
	"net/http"
	"strings"

	"taskgrain/internal/counters"
	"taskgrain/internal/telemetry"
)

// NewHandler builds the introspection handler over a counter registry.
func NewHandler(reg *counters.Registry) http.Handler {
	return NewProviderHandler(func() *counters.Registry { return reg })
}

// NewProviderHandler builds the introspection handler over a registry
// *source*, re-evaluated per request. Long-running commands that build a
// fresh runtime per configuration (cmd/grainscan sweeps) swap the registry
// between runs while the HTTP endpoint stays up; a nil return serves an
// empty registry rather than failing.
func NewProviderHandler(get func() *counters.Registry) http.Handler {
	empty := counters.NewRegistry()
	registry := func() *counters.Registry {
		if r := get(); r != nil {
			return r
		}
		return empty
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/counters", func(w http.ResponseWriter, r *http.Request) {
		prefix := r.URL.Query().Get("prefix")
		snap := registry().Snapshot()
		out := make(map[string]float64, len(snap))
		for name, v := range snap {
			if prefix == "" || strings.HasPrefix(name, prefix) {
				out[name] = v
			}
		}
		writeIndented(w, out)
	})
	counterHandler := func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			name = strings.TrimPrefix(r.URL.Path, "/counter")
		}
		v, ok := registry().Value(name)
		if !ok {
			http.Error(w, "unknown counter "+name, http.StatusNotFound)
			return
		}
		writeIndented(w, map[string]any{"name": name, "value": v})
	}
	mux.HandleFunc("/counter", counterHandler)
	mux.HandleFunc("/counter/", counterHandler)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeOpenMetrics(w, telemetry.PointsFromRegistry(registry(), nil))
	})
	mux.HandleFunc("/histogram/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/histogram")
		c, ok := registry().Get(name)
		if !ok {
			http.Error(w, "unknown counter "+name, http.StatusNotFound)
			return
		}
		h, ok := c.(*counters.Histogram)
		if !ok {
			http.Error(w, name+" is not a histogram", http.StatusBadRequest)
			return
		}
		type bucket struct {
			LoNs  float64 `json:"lo_ns"`
			HiNs  float64 `json:"hi_ns"`
			Count int64   `json:"count"`
		}
		buckets := make([]bucket, 0)
		for _, b := range h.Buckets() {
			buckets = append(buckets, bucket{LoNs: b.LoNs, HiNs: b.HiNs, Count: b.Count})
		}
		writeIndented(w, map[string]any{
			"name":    name,
			"count":   h.Count(),
			"mean_ns": h.Mean(),
			"p50_ns":  h.Quantile(0.5),
			"p99_ns":  h.Quantile(0.99),
			"buckets": buckets,
		})
	})
	return mux
}

// writeIndented serves the operator-facing counter JSON, pretty-printed for
// curl.
func writeIndented(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // network write errors are the client's problem
}

// Serve starts an HTTP server for reg on addr, returning the server for
// shutdown. Errors from the listener are reported on the returned channel
// (closed on clean shutdown).
func Serve(addr string, reg *counters.Registry) (*http.Server, <-chan error) {
	srv := &http.Server{Addr: addr, Handler: NewHandler(reg)}
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	return srv, errc
}
