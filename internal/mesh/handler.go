package mesh

import (
	"bytes"
	"net/http"
	"strings"

	"taskgrain/internal/introspect"
	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// Handler returns the gateway's HTTP surface: the same /v1/jobs API the
// nodes serve (so clients are oblivious to the mesh), plus the mesh-only
// node and stats views, the telemetry exports (/metrics for the gateway's
// own counters, /mesh/metrics for the cluster rollup plus every member
// node's last heartbeat snapshot, /telemetry/alerts relaying each member's
// own idle-watchdog verdict, /mesh/trace for the cross-hop Chrome trace), the
// control-plane
// decision log (/control/decisions: grain-consensus hints pushed, held
// advisory, or vetoed), and the introspect /debug namespace.
func (m *Mesh) Handler() http.Handler {
	mux := http.NewServeMux()
	get := func(path string, h http.HandlerFunc) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				wire.WriteError(w, http.StatusMethodNotAllowed, "use GET")
				return
			}
			h(w, r)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/v1/jobs", m.handleJobs)
	// The exact pattern outranks the /v1/jobs/ subtree, so batch submissions
	// never read as a job ID named "batch".
	mux.HandleFunc("/v1/jobs/batch", m.handleBatch)
	mux.HandleFunc("/v1/jobs/", m.handleJob)
	get("/v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]any{"nodes": m.nodes.Statuses()})
	})
	get("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, m.StatsSnapshot())
	})
	get("/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeOpenMetrics(w, telemetry.PointsFromRegistry(m.reg, map[string]string{"node": m.cfg.Addr}))
	})
	get("/mesh/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.ServeOpenMetrics(w, m.clusterPoints())
	})
	get("/control/decisions", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]any{
			"mode":      string(m.mode),
			"decisions": m.rec.Log(),
		})
	})
	get("/telemetry/alerts", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, map[string]any{"alerts": m.Alerts()})
	})
	get("/mesh/trace", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := m.tracer.WriteChromeJSON(&buf); err != nil {
			wire.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf.Bytes())
	})
	mux.Handle("/debug/", http.StripPrefix("/debug", introspect.NewHandler(m.reg)))
	return mux
}

// clusterPoints assembles the /mesh/metrics exposition: the gateway's own
// registry (routing counters, cluster rollup deriveds) plus every member
// node's last heartbeat counter snapshot relabelled with node="<name>".
// Snapshot-derived points are all gauges — the heartbeat carries values,
// not counter kinds — so a cluster scrape never misclassifies a remote
// reading as monotonic.
func (m *Mesh) clusterPoints() []telemetry.MetricPoint {
	points := telemetry.PointsFromRegistry(m.reg, map[string]string{"node": m.cfg.Addr})
	for _, n := range m.nodes.Nodes() {
		snap, _ := n.Snapshot()
		if len(snap) == 0 {
			continue
		}
		points = append(points, telemetry.PointsFromSnapshot(snap, map[string]string{"node": n.Name()})...)
	}
	return points
}

// handleJobs serves POST /v1/jobs (submit through the mesh) and GET /v1/jobs
// (list mesh jobs).
func (m *Mesh) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		// Decoded as strictly as the node would, so an unknown field is a 400
		// here rather than a field the typed round-trip silently drops.
		spec, err := wire.DecodeSpec(w, r)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		// A valid incoming trace header makes the mesh job a child of the
		// client's span; a malformed one is ignored (the job is traced under
		// a fresh root), mirroring the node-side leniency.
		parent, _ := trace.ParseSpanContext(r.Header.Get(trace.Header))
		wire.WriteItem(w, m.admit(r.Context(), []wire.JobSpec{spec}, parent, false)[0])
	case http.MethodGet:
		jobs := m.jobs.list()
		out := make([]map[string]any, 0, len(jobs))
		for _, j := range jobs {
			node, retries, spills, _, state, _ := j.snapshot()
			out = append(out, map[string]any{
				"id":      j.id,
				"kind":    j.kind,
				"state":   state,
				"node":    node,
				"retries": retries,
				"spills":  spills,
			})
		}
		wire.WriteJSON(w, http.StatusOK, map[string]any{"jobs": out})
	default:
		wire.WriteError(w, http.StatusMethodNotAllowed, "use POST or GET")
	}
}

// handleBatch serves POST /v1/jobs/batch: split the batch by the routing
// policy into per-node sub-batches, forward each as one upstream batch call,
// and stitch the per-item results back in request order.
func (m *Mesh) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	specs, err := wire.DecodeBatch(w, r, m.cfg.MaxBatchJobs)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	parent, _ := trace.ParseSpanContext(r.Header.Get(trace.Header))
	wire.WriteBatch(w, m.admit(r.Context(), specs, parent, true))
}

// handleJob serves GET /v1/jobs/{id} (status relay, with ?wait=true&timeout=
// long-poll passthrough) and DELETE /v1/jobs/{id} (cancel relay).
func (m *Mesh) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		wire.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	job, ok := m.jobs.get(id)
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	switch r.Method {
	case http.MethodGet:
		// The raw query is relayed to the node, so it is judged here by the
		// parser the node will apply to it.
		waitTimeout, err := wire.WaitTimeout(r)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		wire.WriteItem(w, m.relayStatus(job, r.URL.RawQuery, waitTimeout))
	case http.MethodDelete:
		wire.WriteItem(w, m.relayCancel(job))
	default:
		wire.WriteError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}
