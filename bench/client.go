package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/trace"
)

// The load generator is a closed loop: each client submits, follows its
// jobs to a terminal state, and only then submits again — callers that each
// wait for their reply, as cmd/loadgen's are. A slow stack therefore
// receives less load; an open-loop rate ladder needs more connections than
// this host has cores and is a later change. Nothing is retried: a shed, a
// transport error, a non-done terminal state or a wrong checksum is a
// failed job.

// jobView is what the client reads from a job document.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Checksum float64 `json:"checksum"`
	} `json:"result"`
}

func (v *jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

type batchReply struct {
	Results []struct {
		Status int      `json:"status"`
		Job    *jobView `json:"job"`
	} `json:"results"`
}

// jobRecord is one completed job as the client saw it.
type jobRecord struct {
	doneAt float64 // seconds from phase start to terminal observed
	ackMS  float64 // submit start → 202 decoded (shared by a batch's jobs)
	latMS  float64 // submit start → terminal observed
}

// phaseResult is what one load phase produced.
type phaseResult struct {
	elapsed   time.Duration
	records   []jobRecord // jobs that reached done, in completion order per client
	attempted int
	failed    int
	acked     int     // jobs a 202 covered
	points    float64 // grid points of the stencil jobs that reached done
	firstErr  string
	traces    []jobTrace
}

// phase is one stretch of closed-loop load against a stack.
type phase struct {
	st     *stack
	httpc  *http.Client
	seed   int64
	name   string    // distinguishes idempotency keys between phases
	rec    *recorder // non-nil = tag requests and assemble jobTraces
	until  func(elapsed time.Duration, done int64) bool
	start  time.Time
	done   atomic.Int64
	mu     sync.Mutex // guards result
	result phaseResult
}

// newHTTPClient caps the transport at one connection per client, so the
// stack sees exactly numClients keep-alive connections.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     numClients,
		MaxIdleConnsPerHost: numClients,
		DisableCompression:  true,
	}}
}

// run drives numClients closed loops until the stop condition holds, then
// lets every in-flight job finish, and returns the merged result.
func (p *phase) run() phaseResult {
	if p.start.IsZero() {
		p.start = time.Now()
	}
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p.clientLoop(c)
		}(c)
	}
	wg.Wait()
	p.result.elapsed = time.Since(p.start)
	return p.result
}

func (p *phase) clientLoop(c int) {
	cl := &client{p: p, gen: newJobGen(p.st.wl, p.seed, p.name, c)}
	for !p.until(time.Since(p.start), p.done.Load()) {
		cl.submitAndFollow()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.result.add(cl.out)
	p.result.records = append(p.result.records, cl.out.records...)
	p.result.traces = append(p.result.traces, cl.out.traces...)
}

// add folds another result's tallies into r (records and traces are not
// carried over).
func (r *phaseResult) add(o phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.acked += o.acked
	r.points += o.points
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

// client is one closed loop's state.
type client struct {
	p    *phase
	gen  *jobGen
	body []byte
	resp bytes.Buffer
	jobs []genJob
	out  phaseResult
}

func (cl *client) fail(n int, format string, args ...any) {
	cl.out.failed += n
	if cl.out.firstErr == "" {
		cl.out.firstErr = fmt.Sprintf(format, args...)
	}
}

// do sends one request and leaves the response body in cl.resp.
func (cl *client) do(method, url string, body []byte, traceHeader string) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceHeader != "" {
		req.Header.Set(trace.Header, traceHeader)
	}
	resp, err := cl.p.httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	cl.resp.Reset()
	if _, err := cl.resp.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// submitAndFollow is one turn of the loop: one POST (a job or a batch),
// then each admitted job followed to its terminal state in order.
func (cl *client) submitAndFollow() {
	p := cl.p
	wl := p.st.wl
	n := wl.batch

	var path string
	path, cl.body, cl.jobs = cl.gen.request(n, cl.body[:0], cl.jobs[:0])
	var traceID uint64
	var header string
	if p.rec != nil {
		traceID = cl.gen.traceID()
		header = trace.SpanContext{TraceID: traceID, SpanID: 1}.String()
	}

	cl.out.attempted += n
	t0 := time.Now()
	status, err := cl.do(http.MethodPost, p.st.baseURL+path, cl.body, header)
	if err != nil {
		cl.fail(n, "POST %s: %v", path, err)
		return
	}
	if status != http.StatusAccepted {
		cl.fail(n, "POST %s: status %d: %.200s", path, status, cl.resp.Bytes())
		return
	}
	ids := make([]string, 0, n)
	if n > 1 {
		var br batchReply
		if err := json.Unmarshal(cl.resp.Bytes(), &br); err != nil || len(br.Results) != n {
			cl.fail(n, "POST %s: undecodable reply (%v, %d results)", path, err, len(br.Results))
			return
		}
		for _, it := range br.Results {
			if it.Status != http.StatusAccepted || it.Job == nil {
				ids = append(ids, "") // shed item: failed, nothing to follow
				continue
			}
			ids = append(ids, it.Job.ID)
		}
	} else {
		var v jobView
		if err := json.Unmarshal(cl.resp.Bytes(), &v); err != nil || v.ID == "" {
			cl.fail(n, "POST %s: undecodable reply: %v", path, err)
			return
		}
		ids = append(ids, v.ID)
	}
	tAck := time.Now()

	var gwPost span
	var nodePost postSpan
	if p.rec != nil {
		gwPost, _ = p.rec.takeGatewayPost(traceID)
		var ok bool
		if nodePost, ok = p.rec.takeNodePost(traceID); !ok {
			cl.fail(n, "traced POST %016x reached no node handler", traceID)
			return
		}
	}

	for i, id := range ids {
		if id == "" {
			cl.fail(1, "batch item %d shed", i)
			continue
		}
		cl.out.acked++
		v, err := cl.follow(id)
		tEnd := time.Now()
		p.done.Add(1)
		switch {
		case err != nil:
			cl.fail(1, "job %s: %v", id, err)
			continue
		case v.State != "done":
			cl.fail(1, "job %s ended %s: %s", id, v.State, v.Error)
			continue
		case v.Result == nil || !checksumOK(v.Result.Checksum, cl.jobs[i].want):
			cl.fail(1, "job %s (size %d): checksum %v, want %v", id, cl.jobs[i].size, v.Result, cl.jobs[i].want)
			continue
		}
		if wl.kind == "stencil1d" {
			cl.out.points += float64(cl.jobs[i].size)
		}
		cl.out.records = append(cl.out.records, jobRecord{
			doneAt: tEnd.Sub(p.start).Seconds(),
			ackMS:  float64(tAck.Sub(t0)) / float64(time.Millisecond),
			latMS:  float64(tEnd.Sub(t0)) / float64(time.Millisecond),
		})
		if p.rec != nil {
			jt, err := cl.assemble(id, i, t0, tAck, tEnd, gwPost, nodePost)
			if err != nil {
				cl.fail(1, "job %s: trace: %v", id, err)
				continue
			}
			cl.out.traces = append(cl.out.traces, jt)
		}
	}
}

// follow long-polls one job until it is terminal.
func (cl *client) follow(id string) (jobView, error) {
	url := cl.p.st.baseURL + jobsPath + "/" + id + "?wait=true"
	for {
		var v jobView
		status, err := cl.do(http.MethodGet, url, nil, "")
		if err != nil {
			return v, err
		}
		if status != http.StatusOK {
			return v, fmt.Errorf("GET status %d: %.200s", status, cl.resp.Bytes())
		}
		if err := json.Unmarshal(cl.resp.Bytes(), &v); err != nil {
			return v, err
		}
		if v.terminal() {
			return v, nil
		}
		// The long-poll timed out (30 s) on a live job: poll again.
	}
}

// assemble joins the client's own stamps with the handler spans the
// middleware recorded and the job's lifecycle stamps read off its node.
func (cl *client) assemble(id string, item int, t0, tAck, tEnd time.Time, gwPost span, nodePost postSpan) (jobTrace, error) {
	p := cl.p
	jt := jobTrace{t0: t0, tAck: tAck, tEnd: tEnd, gwPost: gwPost, nodePost: nodePost.span}
	if item >= len(nodePost.ids) {
		return jt, fmt.Errorf("node reply carried %d ids, need item %d", len(nodePost.ids), item)
	}
	nodeID := nodePost.ids[item]
	job, ok := p.st.nodes[nodePost.node].Job(nodeID)
	if !ok {
		return jt, fmt.Errorf("node %d no longer retains %s", nodePost.node, nodeID)
	}
	view := job.View()
	if view.StartedAt == nil || view.FinishedAt == nil {
		return jt, fmt.Errorf("%s is terminal but lacks started/finished stamps", nodeID)
	}
	jt.submitted, jt.started, jt.finished = view.SubmittedAt, *view.StartedAt, *view.FinishedAt
	jt.nodeGets = p.rec.takeGets(hop(nodePost.node), nodeID)
	if p.st.gateway != nil {
		jt.gwGets = p.rec.takeGets(hopGateway, id)
	}
	return jt, nil
}

// checksumOK compares a served checksum with the reference. The server sums
// in the reference's order, so they agree to the last bit on one
// architecture; the tolerance only forgives fused multiply-adds elsewhere.
func checksumOK(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
