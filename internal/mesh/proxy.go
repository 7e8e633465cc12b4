package mesh

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// nodeReply is one node reply: the HTTP status, the raw body, and the
// Retry-After hint if present.
type nodeReply struct {
	status     int
	body       []byte
	retryAfter time.Duration
}

// view decodes the reply as a job view. A node's error body decodes too,
// leaving ID empty and Error set; an undecodable body yields the zero view.
func (r nodeReply) view() wire.JobView {
	var v wire.JobView
	_ = json.Unmarshal(r.body, &v)
	return v
}

// item renders the whole reply as one job's result: the status, the view
// when the node admitted, the refusal's reason and Retry-After otherwise.
func (r nodeReply) item() wire.BatchItem {
	view := r.view()
	it := wire.BatchItem{Status: r.status, Error: view.Error}
	if r.status == http.StatusAccepted {
		it.Job = &view
	}
	if r.retryAfter > 0 {
		it.RetryAfter = wire.RetryAfterSeconds(r.retryAfter)
	}
	return it
}

// do performs one request against a node. span, when valid, rides the
// Taskgrain-Trace header so the node stamps the job with the cross-hop trace
// identity.
func (m *Mesh) do(ctx context.Context, method, url string, body []byte, span trace.SpanContext) (nodeReply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nodeReply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span.Valid() {
		req.Header.Set(trace.Header, span.String())
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nodeReply{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nodeReply{}, err
	}
	return nodeReply{
		status:     resp.StatusCode,
		body:       raw,
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}, nil
}

// parseRetryAfter interprets a Retry-After header value as a delay: the
// delta-seconds form, or the RFC 9110 HTTP-date form relative to now.
// Unparseable or non-positive values read as "no hint".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// relayStatus forwards one status poll to the job's current node, hedging
// long-polls and failing over when the node is gone. rawQuery carries the
// client's wait/timeout parameters verbatim; waitTimeout is the parsed
// long-poll bound (0 for a plain poll). The result is 200 with the view, or
// the refusal's status and reason.
func (m *Mesh) relayStatus(job *meshJob, rawQuery string, waitTimeout time.Duration) wire.BatchItem {
	// Terminal is final: once the node's own terminal reply is cached, every
	// later poll is served from it without a node round-trip. A recovered
	// job's cache is the journal's bare verdict, so it still asks its node.
	if !job.recovered {
		if cached, ok := m.cachedView(job); ok {
			return cached
		}
	}
	for attempt := 0; attempt <= m.cfg.MaxSubmitAttempts; attempt++ {
		n, nodeID, epoch := job.placement()
		if n == nil {
			return wire.BatchItem{Status: http.StatusServiceUnavailable, Error: "job has no placement"}
		}
		url := n.base + "/v1/jobs/" + nodeID
		if rawQuery != "" {
			url += "?" + rawQuery
		}
		resp, err := m.hedgedGet(n, url, nodeID, waitTimeout)
		switch {
		case err == nil && resp.status == http.StatusOK:
			return m.observed(n, job, resp.view())
		case err != nil || resp.status == http.StatusNotFound:
			// The node died, or restarted (or evicted the job) so its
			// jobStore no longer knows the ID. If we already saw a terminal
			// state, serve the cached view; otherwise fail over.
			if cached, ok := m.cachedView(job); ok {
				return cached
			}
			if !m.failover(job, epoch) {
				return wire.BatchItem{
					Status: http.StatusServiceUnavailable,
					Error:  fmt.Sprintf("node %s unreachable and no failover target admitted the job; retry", n.name),
				}
			}
		default:
			return nodeRefusal(n, resp)
		}
	}
	return wire.BatchItem{Status: http.StatusServiceUnavailable, Error: "job placement unstable; retry"}
}

// observed records a node's 200 view of the job — accounting the first
// terminal observation — and renders it for the mesh client.
func (m *Mesh) observed(n *Node, job *meshJob, view wire.JobView) wire.BatchItem {
	if job.observe(view) {
		m.jobs.retire(job)
		m.terminalC.Inc()
		m.traceSpan(trace.PhaseEnd, n, job)
		if m.wal != nil {
			m.journalTerm(job)
		}
	}
	return wire.BatchItem{Status: http.StatusOK, Job: m.augment(view, job)}
}

// nodeRefusal relays a node's non-200 answer to a status or cancel request.
func nodeRefusal(n *Node, resp nodeReply) wire.BatchItem {
	msg := resp.view().Error
	if msg == "" {
		msg = fmt.Sprintf("node %s answered %d", n.name, resp.status)
	}
	return wire.BatchItem{Status: resp.status, Error: msg}
}

// cachedView serves the last observed node response if the job already
// reached a terminal state — a node dying *after* finishing a job must not
// un-finish it.
func (m *Mesh) cachedView(job *meshJob) (wire.BatchItem, bool) {
	_, _, _, terminal, _, lastView := job.snapshot()
	if terminal && lastView != nil {
		return wire.BatchItem{Status: http.StatusOK, Job: m.augment(*lastView, job)}, true
	}
	return wire.BatchItem{}, false
}

// hedgedGet performs the status GET. For long-polls it hedges: if the
// primary request produces nothing within HedgeDelay, a cheap no-wait probe
// checks whether the node is still alive — a dead node fails the probe in
// milliseconds instead of wedging the client for the whole long-poll
// timeout, and a live node just keeps the primary running.
func (m *Mesh) hedgedGet(n *Node, url, nodeID string, waitTimeout time.Duration) (nodeReply, error) {
	budget := m.cfg.RequestTimeout
	if waitTimeout > 0 {
		budget += waitTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	if waitTimeout <= 0 || m.cfg.HedgeDelay <= 0 {
		return m.do(ctx, http.MethodGet, url, nil, trace.SpanContext{})
	}

	type result struct {
		resp nodeReply
		err  error
	}
	primary := make(chan result, 1)
	go func() {
		r, err := m.do(ctx, http.MethodGet, url, nil, trace.SpanContext{})
		primary <- result{r, err}
	}()

	hedge := time.NewTimer(m.cfg.HedgeDelay)
	defer hedge.Stop()
	for {
		select {
		case r := <-primary:
			return r.resp, r.err
		case <-hedge.C:
			probeCtx, probeCancel := context.WithTimeout(context.Background(), m.cfg.RequestTimeout)
			_, err := m.do(probeCtx, http.MethodGet, n.base+"/v1/jobs/"+nodeID, nil, trace.SpanContext{})
			probeCancel()
			if err != nil {
				// The node is gone; abandon the long-poll now.
				cancel()
				<-primary
				return nodeReply{}, fmt.Errorf("mesh: %s died during long-poll: %w", n.name, err)
			}
			// Node alive — keep waiting on the primary, reprobing each
			// HedgeDelay in case it dies later in the poll.
			hedge.Reset(m.cfg.HedgeDelay)
		}
	}
}

// failover re-places a job whose node died mid-flight: mark the node
// unreachable, run the job's replay spec (same idempotency key — if the node
// was merely slow and still holds the job, a future heartbeat revives it and
// the key prevents a duplicate run on *that* node) through the placement loop
// as a batch of one carrying the observed epoch, and bump the retry count.
// Concurrent pollers serialize on failoverMu so exactly one resubmission
// happens per placement epoch. Reports whether the job has a live placement
// afterwards.
func (m *Mesh) failover(job *meshJob, fromEpoch int) bool {
	job.failoverMu.Lock()
	defer job.failoverMu.Unlock()
	old, _, epoch := job.placement()
	if epoch != fromEpoch {
		return true // a concurrent poller already re-placed it
	}
	if old != nil {
		old.markUnreachable(m.cfg.DownAfter)
	}
	it := newPlaceItem(job, fromEpoch, true)
	m.place(context.Background(), []*placeItem{it}, false)
	if it.view == nil {
		return false
	}
	if old != nil {
		old.failovers.Inc()
	}
	m.failovers.Inc()
	return true
}

// relayCancel forwards a cancellation to the job's current node.
func (m *Mesh) relayCancel(job *meshJob) wire.BatchItem {
	n, nodeID, _ := job.placement()
	if n == nil {
		return wire.BatchItem{Status: http.StatusServiceUnavailable, Error: "job has no placement"}
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.RequestTimeout)
	defer cancel()
	resp, err := m.do(ctx, http.MethodDelete, n.base+"/v1/jobs/"+nodeID, nil, trace.SpanContext{})
	if err != nil {
		n.markUnreachable(m.cfg.DownAfter)
		return wire.BatchItem{
			Status: http.StatusBadGateway,
			Error:  fmt.Sprintf("node %s unreachable: %v", n.name, err),
		}
	}
	if resp.status != http.StatusOK {
		return nodeRefusal(n, resp)
	}
	return m.observed(n, job, resp.view())
}

// augment rewrites a node job view for the mesh client: the ID becomes the
// mesh-scoped ID (node-local IDs collide across nodes), and the mesh block
// surfaces the placement, the failover retry count, the submission spill
// count, and the trace ID shared by every hop of the job.
func (m *Mesh) augment(view wire.JobView, job *meshJob) *wire.JobView {
	node, retries, spills, _, _, _ := job.snapshot()
	view.ID = job.id
	view.Mesh = &wire.MeshInfo{Node: node, Retries: retries, Spills: spills}
	if span := job.traceSpan(); span.Valid() {
		view.Mesh.TraceID = fmt.Sprintf("%016x", span.TraceID)
	}
	return &view
}
