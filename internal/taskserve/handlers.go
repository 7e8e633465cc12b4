package taskserve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"taskgrain/internal/introspect"
	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// maxHintBytes bounds a control-hint body: a handful of kind→grain pairs.
const maxHintBytes = 1 << 16

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs           submit a job (202, or 429/503 + Retry-After)
//	POST   /v1/jobs/batch     submit up to max_batch_jobs specs as one batch
//	                          ({"jobs":[spec,...]}); one admission check and
//	                          one journal group commit cover the batch, with
//	                          partial admission — per-item 202/429 results,
//	                          202 overall when anything was admitted
//	GET    /v1/jobs           list retained jobs
//	GET    /v1/jobs/{id}      job status; ?wait=true[&timeout=30s] long-polls
//	DELETE /v1/jobs/{id}      request cancellation
//	GET    /v1/stats          service stats
//	GET    /healthz           liveness + drain state (JSON {"status":"ok"}
//	                          or {"status":"draining"}, always 200 — the mesh
//	                          registry reads the body to stop routing to a
//	                          draining node before a submit bounces off 503)
//	GET    /metrics           the live registry as OpenMetrics text
//	GET    /telemetry/alerts  idle-rate watchdog verdict (JSON)
//	GET    /telemetry/series  ring time series; ?name=/server/idle-rate
//	                          [&n=60][&window=2s] adds a window delta/rate
//	GET    /control/decisions control-plane decision log (mode + entries)
//	POST   /control/hint      externally push per-kind grains
//	                          ({"grains":{"stencil1d":4096},"source":"..."});
//	                          each hint applies, stays advisory, or is vetoed
//	                          per the engine's guardrails
//	/debug/...                the introspect counter surface (live registry)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if s.draining.Load() {
			status = "draining"
		}
		wire.WriteJSON(w, http.StatusOK, map[string]string{"status": status})
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		wire.WriteJSON(w, http.StatusOK, s.StatsSnapshot())
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /telemetry/alerts", s.handleAlerts)
	mux.HandleFunc("GET /telemetry/series", s.handleSeries)
	mux.HandleFunc("GET /control/decisions", s.handleControlDecisions)
	mux.HandleFunc("POST /control/hint", s.handleControlHint)
	mux.Handle("/debug/", http.StripPrefix("/debug", introspect.NewHandler(s.rt.Counters())))
	return mux
}

// handleMetrics renders every registered counter as OpenMetrics text, the
// node's own listen address as the node label.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.ServeOpenMetrics(w, telemetry.PointsFromRegistry(s.rt.Counters(), map[string]string{"node": s.cfg.Addr}))
}

// handleControlDecisions serves the control plane's decision log: the mode
// the engine runs under and every recorded actuation/advisory/veto, oldest
// first.
func (s *Server) handleControlDecisions(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"mode":      string(s.eng.Mode()),
		"decisions": s.eng.Decisions(),
	})
}

// handleControlHint accepts externally pushed per-kind grains — a mesh
// gateway's cluster consensus, or an operator's manual steer. Every hint is
// recorded; whether it actuates is the engine's call (mode, guardrails).
func (s *Server) handleControlHint(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Grains map[string]int `json:"grains"`
		Source string         `json:"source"`
	}
	body := http.MaxBytesReader(w, r.Body, maxHintBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, "bad hint body: "+err.Error())
		return
	}
	if len(req.Grains) == 0 {
		wire.WriteError(w, http.StatusBadRequest, "hint carries no grains")
		return
	}
	source := req.Source
	if source == "" {
		source = "external"
	}
	applied := map[string]int{}
	vetoed := map[string]string{}
	for kind, grain := range req.Grains {
		if ok, reason := s.eng.ApplyHint(kind, grain, source); ok {
			applied[kind] = s.eng.Grain(kind)
		} else {
			vetoed[kind] = reason
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"mode":    string(s.eng.Mode()),
		"applied": applied,
		"vetoed":  vetoed,
	})
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"alerts": []telemetry.Alert{s.watchdog.Current()},
	})
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	if name == "" {
		wire.WriteError(w, http.StatusBadRequest, "missing ?name= counter path (e.g. /server/idle-rate)")
		return
	}
	n := 60
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			wire.WriteError(w, http.StatusBadRequest, "bad n "+strconv.Quote(v))
			return
		}
		n = parsed
	}
	ring := s.sampler.Ring()
	out := map[string]any{
		"name":        name,
		"interval_ns": s.sampler.Interval(),
		"points":      ring.Series(name, n),
	}
	if v := q.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			wire.WriteError(w, http.StatusBadRequest, "bad window "+strconv.Quote(v)+" (want a Go duration, e.g. 2s)")
			return
		}
		if delta, elapsed, ok := ring.Delta(name, d); ok {
			out["window_delta"] = delta
			out["window_elapsed_ns"] = elapsed
		}
		if rate, ok := ring.Rate(name, d); ok {
			out["window_rate_per_sec"] = rate
		}
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

// handleSubmit serves POST /v1/jobs: a batch of one through admitItems,
// answered as the single response its one item renders to.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := wire.DecodeSpec(w, r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The Taskgrain-Trace header is the canonical carrier of the cross-hop
	// trace identity (the gateway sets it on every forwarded hop); a valid
	// header overrides any body-carried context. Malformed headers leave
	// the job untraced rather than failing the submission.
	if sc, ok := trace.ParseSpanContext(r.Header.Get(trace.Header)); ok {
		spec.TraceContext = sc.String()
	}
	wire.WriteItem(w, s.admitItems([]JobSpec{spec}, s.admit)[0])
}

// handleSubmitBatch serves POST /v1/jobs/batch: admit the batch through one
// SubmitBatch call and render per-item results.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	specs, err := wire.DecodeBatch(w, r, s.cfg.MaxBatchJobs)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The trace header covers items that carry no body trace_context of
	// their own — a gateway forwarding a batch embeds per-item contexts in
	// the specs, while a plain client's single header traces the whole batch.
	if sc, ok := trace.ParseSpanContext(r.Header.Get(trace.Header)); ok {
		for i := range specs {
			if specs[i].TraceContext == "" {
				specs[i].TraceContext = sc.String()
			}
		}
	}
	wire.WriteBatch(w, s.admitItems(specs, s.SubmitBatch))
}

// admitItems validates the specs, admits the valid ones through submit (the
// admit core, or SubmitBatch which also counts /server/batch/*), and renders
// index-aligned wire items. A spec that fails validation gets a per-item 400
// without failing the rest of the batch.
func (s *Server) admitItems(specs []JobSpec, submit func([]JobSpec) []batchItem) []wire.BatchItem {
	items := make([]wire.BatchItem, len(specs))
	valid := make([]int, 0, len(specs))          // positions of the specs that passed
	validSpecs := make([]JobSpec, 0, len(specs)) // those specs, in order
	for i := range specs {
		spec := withDefaults(specs[i])
		if err := validateSpec(&spec, s.cfg.MaxJobSize); err != nil {
			items[i] = wire.BatchItem{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		valid = append(valid, i)
		validSpecs = append(validSpecs, spec)
	}
	if len(validSpecs) == 0 {
		return items
	}
	for k, res := range submit(validSpecs) {
		if res.job != nil {
			view := res.job.View()
			items[valid[k]] = wire.BatchItem{Status: http.StatusAccepted, Job: &view}
			continue
		}
		items[valid[k]] = wire.BatchItem{
			Status:     res.shed.status,
			Error:      res.shed.reason,
			RetryAfter: wire.RetryAfterSeconds(res.shed.retryAfter),
		}
	}
	return items
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	timeout, err := wire.WaitTimeout(r)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-job.Done():
		case <-t.C:
			// Not an error: return the current (non-terminal) view so the
			// client can re-poll.
		case <-r.Context().Done():
			return
		}
	}
	wire.WriteJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		wire.WriteError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
		return
	}
	wire.WriteJSON(w, http.StatusOK, job.View())
}
