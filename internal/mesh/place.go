// Placement: every job the gateway admits — a client's single submit, each
// item of a client's batch, and a failover re-placement — goes through the
// one spillover loop below, a single job as a batch of one. The loop groups
// the still-unplaced items by their best untried node and sends one upstream
// call per node, so the amortization composes across layers: the client pays
// one gateway round-trip for N jobs, each node pays one admission check and
// one journal group commit per sub-batch. Spillover stays per item: a node
// that sheds part of a sub-batch only sends those items on to the next-best
// node, each bounded by MaxSubmitAttempts node tries.
package mesh

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// placeItem tracks one job through the placement loop. A failover carries
// the epoch it observed, so a stale re-placement is discarded.
type placeItem struct {
	job        *meshJob
	fromEpoch  int
	isFailover bool

	tried    map[*Node]bool // nodes tried since the last backoff reset
	replay   *Node          // node that admitted without a decodable id; retried before any other
	attempts int            // node tries consumed (bounded by MaxSubmitAttempts)
	done     bool           // resolved: placed, rejected, or given up
	view     *wire.JobView  // the admitting node's view, once placed
	refusal  wire.BatchItem // last refusal; the verdict if the item never lands
}

func newPlaceItem(job *meshJob, fromEpoch int, isFailover bool) *placeItem {
	return &placeItem{
		job: job, fromEpoch: fromEpoch, isFailover: isFailover,
		tried:   make(map[*Node]bool),
		refusal: noRoutableNodes,
	}
}

var noRoutableNodes = wire.BatchItem{Status: http.StatusServiceUnavailable, Error: "no routable mesh nodes"}

// admit takes client specs into the mesh: mint a mesh job per spec, stamp an
// idempotency key, mint (or adopt) the trace context, and run the placement
// loop. parent is the client's incoming trace context — when valid the jobs
// join that trace as child spans, otherwise the gateway roots fresh ones. ctx
// is the client request's context: a client that hangs up mid-placement
// unwinds the loop instead of serving out the remaining backoff. batch says
// which endpoint the request arrived on; it is forwarded upstream on the
// same one, and only batch requests move the /mesh/batch/* counters. Results
// are index-aligned with specs.
func (m *Mesh) admit(ctx context.Context, specs []wire.JobSpec, parent trace.SpanContext, batch bool) []wire.BatchItem {
	items := make([]*placeItem, len(specs))
	for i, spec := range specs {
		job := m.jobs.add(spec.Kind)
		if spec.IdempotencyKey == "" {
			// Mesh-scoped key: failover resubmission replays instead of
			// re-running if the suspect node turns out to be alive.
			spec.IdempotencyKey = fmt.Sprintf("mesh-%s-%s", m.id, job.id)
		}
		spec.TraceContext = ""
		span := trace.NewSpanContext()
		if parent.Valid() {
			span = parent.Child()
		}
		spec := spec // each job owns its copy
		job.mu.Lock()
		job.key, job.spec, job.span = spec.IdempotencyKey, &spec, span
		job.mu.Unlock()
		items[i] = newPlaceItem(job, 0, false)
	}

	forwards, split := m.place(ctx, items, batch)
	if batch {
		m.batchForwarded.Add(int64(forwards))
		m.batchSplit.Store(int64(split))
	}

	out := make([]wire.BatchItem, len(items))
	for i, it := range items {
		if it.view == nil {
			m.jobs.remove(it.job.id)
			m.rejected.Inc()
			out[i] = it.refusal
			continue
		}
		m.submitted.Inc()
		out[i] = wire.BatchItem{Status: http.StatusAccepted, Job: m.augment(*it.view, it.job)}
	}
	return out
}

// place runs the spillover loop until every item is resolved: placed
// (it.view set), rejected by a node's own 4xx (relayed — a spec rejection
// will not get better on another node), or given up with its last refusal
// and a Retry-After hint once its MaxSubmitAttempts node tries are spent or
// ctx is canceled. Within a pass each item tries the ranked nodes best-first
// with no delay; only when every pending item has exhausted the routable set
// does the loop back off — honouring the smallest Retry-After seen in the
// pass, jittered and capped by MaxBackoff — and re-rank. A pass that finds no
// routable node consumes an attempt too, so the bound holds when the whole
// mesh is down or draining. Failover passes context.Background(): a poller
// hanging up must never abort the re-placement of an admitted job. Returns
// the upstream calls made and how many nodes the first pass split over.
func (m *Mesh) place(ctx context.Context, items []*placeItem, batch bool) (forwards, split int) {
	pending := append([]*placeItem(nil), items...)
	var passHint, lastHint time.Duration
	giveUp := func(it *placeItem) {
		it.done = true
		it.refusal.RetryAfter = wire.RetryAfterSeconds(lastHint) // at least 1s
	}
placing:
	for first := true; len(pending) > 0; first = false {
		// Group the pending items by each one's target. Items of different
		// kinds may rank different best nodes, so one client batch fans out
		// into one sub-batch per target.
		groups := make(map[*Node][]*placeItem)
		var order []*Node
		for _, it := range pending {
			if n := m.target(it); n != nil {
				if groups[n] == nil {
					order = append(order, n)
				}
				groups[n] = append(groups[n], it)
			}
		}
		if first {
			split = len(order)
		}
		if len(order) == 0 {
			// Every node is down or draining. The empty pass still consumes
			// an attempt — otherwise nothing would ever increment attempts
			// and the loop would spin in backoff forever, wedging the
			// client's POST (and, via failover, the job's failoverMu). The
			// backoff below gives heartbeats a chance to revive a node
			// before the budget runs out.
			for _, it := range pending {
				it.attempts++
				it.refusal = noRoutableNodes
			}
		}
		for _, n := range order {
			forwards++
			hint, ok := m.forward(ctx, n, groups[n], batch)
			if hint > 0 && (passHint == 0 || hint < passHint) {
				passHint, lastHint = hint, hint
			}
			if !ok {
				break placing
			}
		}

		still := pending[:0]
		allTried := true
		for _, it := range pending {
			switch {
			case it.done:
			case it.attempts >= m.cfg.MaxSubmitAttempts:
				giveUp(it)
			default:
				still = append(still, it)
				allTried = allTried && m.target(it) == nil
			}
		}
		pending = still
		if allTried && len(pending) > 0 {
			// The tried sets reset so a node revived by heartbeats during
			// the backoff gets retried.
			for _, it := range pending {
				it.tried = make(map[*Node]bool)
			}
			if !m.backoff(ctx, passHint) {
				break placing
			}
			passHint = 0
		}
	}
	// Anything still unresolved means the client hung up: unwind with the
	// last refusals rather than burning the remaining attempts against a
	// context every try will fail.
	for _, it := range items {
		if !it.done {
			giveUp(it)
		}
	}
	return forwards, split
}

// target picks the node an item tries next: the node owed a replay, else its
// best-ranked untried node, else nil.
func (m *Mesh) target(it *placeItem) *Node {
	if it.replay != nil {
		return it.replay
	}
	for _, n := range m.router.rank(it.job.kind) {
		if !it.tried[n] {
			return n
		}
	}
	return nil
}

// forward sends one group of items to a node in one upstream call and applies
// each item's verdict: admitted items are placed, shed items stay pending
// with the node marked tried, and spec-level rejections are relayed. Returns
// the smallest Retry-After hint seen (0 for none) and false when the client
// context was canceled.
func (m *Mesh) forward(ctx context.Context, n *Node, group []*placeItem, batch bool) (time.Duration, bool) {
	for _, it := range group {
		it.attempts++
		it.tried[n] = true
		it.replay = nil
	}
	tryCtx, cancel := context.WithTimeout(ctx, m.cfg.RequestTimeout)
	results, err := m.send(tryCtx, n, group, batch)
	cancel()
	if err != nil {
		if ctx.Err() != nil {
			// The failure is the client's, not the node's, so the node is
			// not marked unreachable.
			return 0, false
		}
		n.markUnreachable(m.cfg.DownAfter)
		for _, it := range group {
			m.noteSpill(n, it.job)
			it.refusal = wire.BatchItem{
				Status: http.StatusServiceUnavailable,
				Error:  fmt.Sprintf("node %s unreachable", n.name),
			}
		}
		return 0, true
	}

	hint := time.Duration(0)
	var placed []*meshJob
	for k, it := range group {
		res := results[k]
		switch {
		case res.Status == http.StatusAccepted && (res.Job == nil || res.Job.ID == ""):
			// The node admitted a job but the reply carried no decodable ID.
			// Re-placing elsewhere would orphan that admitted run, so replay
			// the *same* node — the idempotency key turns the retry into a
			// lookup of the job the node already holds — until the attempt
			// budget runs out, at which point the anomaly is surfaced.
			it.replay = n
			it.refusal = wire.BatchItem{
				Status: http.StatusBadGateway,
				Error:  fmt.Sprintf("node %s admitted the job but returned no id", n.name),
			}
		case res.Status == http.StatusAccepted:
			it.done, it.view = true, res.Job
			if !it.job.place(n, res.Job.ID, it.fromEpoch, it.isFailover) {
				// A concurrent failover re-placed the job first. Placements
				// are serialized by failoverMu precisely so this branch stays
				// unreachable; it is kept as a guard.
				continue
			}
			if m.wal != nil {
				placed = append(placed, it.job)
			}
			hop := trace.Route
			if it.isFailover {
				hop = trace.FailoverHop
			}
			m.traceHop(hop, n, it.job)
			m.traceSpan(trace.PhaseBegin, n, it.job)
			n.routed.Inc()
		case res.Shed():
			// The shed path this whole loop exists for: spill over to the
			// next-best node, remembering the backoff hint.
			m.noteSpill(n, it.job)
			if ra := time.Duration(res.RetryAfter) * time.Second; ra > 0 && (hint == 0 || ra < hint) {
				hint = ra
			}
			it.refusal = wire.BatchItem{
				Status: http.StatusServiceUnavailable,
				Error:  fmt.Sprintf("all mesh nodes shed (last: %s with %d)", n.name, res.Status),
			}
		default:
			// Spec-level rejection (4xx): every node would refuse it the
			// same way.
			if res.Error == "" {
				res.Error = fmt.Sprintf("node %s refused with %d", n.name, res.Status)
			}
			it.done = true
			it.refusal = wire.BatchItem{Status: res.Status, Error: res.Error}
		}
	}
	if len(placed) > 0 {
		m.journalPlace(placed)
	}
	return hint, true
}

// send makes the upstream call for one group and returns one result per item.
// A request that arrived as a single submit (or a failover) goes out as POST
// /v1/jobs with the hop's span in the Taskgrain-Trace header; a batch request
// goes out as POST /v1/jobs/batch, where one HTTP request carries many items,
// so each hop's child span rides in its spec body instead. Either way each
// hop gets its own child span of the job's root context, so the node-side
// trace_context distinguishes retries of the same job while sharing one
// trace ID.
func (m *Mesh) send(ctx context.Context, n *Node, group []*placeItem, batch bool) ([]wire.BatchItem, error) {
	if !batch {
		job := group[0].job
		body, err := json.Marshal(job.replaySpec())
		if err != nil {
			return nil, err
		}
		resp, err := m.do(ctx, http.MethodPost, n.base+"/v1/jobs", body, job.traceSpan().Child())
		return []wire.BatchItem{resp.item()}, err
	}

	req := wire.BatchRequest{Jobs: make([]wire.JobSpec, len(group))}
	for k, it := range group {
		req.Jobs[k] = it.job.replaySpec()
		req.Jobs[k].TraceContext = it.job.traceSpan().Child().String()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := m.do(ctx, http.MethodPost, n.base+"/v1/jobs/batch", body, trace.SpanContext{})
	if err != nil {
		return nil, err
	}
	var reply wire.BatchResponse
	if json.Unmarshal(resp.body, &reply) == nil && len(reply.Results) == len(group) {
		return reply.Results, nil
	}
	// A reply without index-aligned per-item results stands for every item:
	// a whole-batch shed spills, a 4xx is relayed (retrying elsewhere cannot
	// fix a spec- or protocol-level refusal), and a mangled 2xx reads as a
	// gateway-level anomaly.
	all := resp.item()
	if !all.Shed() && (resp.status < http.StatusBadRequest || all.Error == "") {
		all = wire.BatchItem{
			Status: http.StatusBadGateway,
			Error:  fmt.Sprintf("node %s returned an undecodable batch reply (%d)", n.name, resp.status),
		}
	}
	results := make([]wire.BatchItem, len(group))
	for k := range results {
		results[k] = all
	}
	return results, nil
}

// noteSpill accounts one bounced submission attempt against a node.
func (m *Mesh) noteSpill(n *Node, job *meshJob) {
	n.spills.Inc()
	m.spillsC.Inc()
	m.traceHop(trace.SpillHop, n, job)
	job.mu.Lock()
	job.spills++
	job.mu.Unlock()
}

// backoff waits between spillover passes: the Retry-After hint (default
// 100ms when nodes gave none), capped by MaxBackoff, jittered into
// [1/2, 1)× so synchronized retries from many clients decorrelate. The wait
// ends early when ctx does — a client that hung up must unwind promptly, not
// after the full backoff — reported as false so the caller can stop.
func (m *Mesh) backoff(ctx context.Context, hint time.Duration) bool {
	base := hint
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if base > m.cfg.MaxBackoff {
		base = m.cfg.MaxBackoff
	}
	d := base/2 + time.Duration(rand.Int64N(int64(base/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
