package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/stats"
	"taskgrain/internal/trace"
)

// Tracing is done entirely from here: the client tags each submission with
// a Taskgrain-Trace header, the middleware below times every handler the
// benchmark hosts, and after each job the client reads the job's own
// submitted/started/finished stamps off the node. All clocks are this
// process's monotonic clock, so one job's chain
//
//	t0 → first handler entry → node handler entry → submitted_at →
//	started_at → finished_at → terminal observed
//
// telescopes to the client latency exactly. Spans inside the program are a
// later change.

// span is one timed interval.
type span struct{ in, out time.Time }

func (s span) dur() time.Duration { return s.out.Sub(s.in) }

// postSpan is a node's POST handler span plus the job ids it answered with
// (the gateway rewrites ids, so the client cannot learn them otherwise).
type postSpan struct {
	span
	node int
	ids  []string
}

// hop names where a middleware sits: node i, or the gateway.
type hop int

const hopGateway hop = -1

type getKey struct {
	at hop
	id string
}

// recorder collects handler spans while on. A nil recorder wraps nothing.
type recorder struct {
	on atomic.Bool

	mu        sync.Mutex
	gwPosts   map[uint64]span     // by trace id
	nodePosts map[uint64]postSpan // by trace id
	gets      map[getKey][]span   // by hop and the job id that hop knows
}

func newRecorder() *recorder {
	return &recorder{
		gwPosts:   map[uint64]span{},
		nodePosts: map[uint64]postSpan{},
		gets:      map[getKey][]span{},
	}
}

func (rec *recorder) wrap(next http.Handler, at hop) http.Handler {
	if rec == nil {
		return next
	}
	return &tracingHandler{rec: rec, at: at, next: next}
}

type tracingHandler struct {
	rec  *recorder
	at   hop
	next http.Handler
}

const jobsPath = "/v1/jobs"

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	path := r.URL.Path
	switch {
	case r.Method == http.MethodPost && (path == jobsPath || path == jobsPath+"/batch"):
		sc, ok := trace.ParseSpanContext(r.Header.Get(trace.Header))
		if !ok {
			h.next.ServeHTTP(w, r)
			return
		}
		if h.at == hopGateway {
			in := time.Now()
			h.next.ServeHTTP(w, r)
			out := time.Now()
			h.rec.mu.Lock()
			h.rec.gwPosts[sc.TraceID] = span{in, out}
			h.rec.mu.Unlock()
			return
		}
		cw := &captureWriter{ResponseWriter: w}
		in := time.Now()
		h.next.ServeHTTP(cw, r)
		out := time.Now()
		ps := postSpan{span: span{in, out}, node: int(h.at), ids: jobIDs(cw.body.Bytes())}
		h.rec.mu.Lock()
		h.rec.nodePosts[sc.TraceID] = ps
		h.rec.mu.Unlock()
	case r.Method == http.MethodGet && strings.HasPrefix(path, jobsPath+"/"):
		key := getKey{at: h.at, id: path[len(jobsPath)+1:]}
		in := time.Now()
		h.next.ServeHTTP(w, r)
		out := time.Now()
		h.rec.mu.Lock()
		h.rec.gets[key] = append(h.rec.gets[key], span{in, out})
		h.rec.mu.Unlock()
	default:
		h.next.ServeHTTP(w, r) // heartbeats, counter scrapes
	}
}

// captureWriter tees a response body so job ids can be read from it.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

// jobIDs extracts, in order, every node job id ("j-<n>") a submit response
// carries: one for POST /v1/jobs, one per admitted item for a batch. It
// scans for the "id" key rather than decoding, so the traced path adds
// little work; whitespace after the colon is optional.
func jobIDs(body []byte) []string {
	var ids []string
	key := []byte(`"id":`)
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return ids
		}
		body = bytes.TrimLeft(body[i+len(key):], " \t\r\n")
		if !bytes.HasPrefix(body, []byte(`"j-`)) {
			continue
		}
		body = body[1:]
		end := bytes.IndexByte(body, '"')
		if end < 0 {
			return ids
		}
		ids = append(ids, string(body[:end]))
		body = body[end:]
	}
}

func (rec *recorder) takeGatewayPost(traceID uint64) (span, bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s, ok := rec.gwPosts[traceID]
	delete(rec.gwPosts, traceID)
	return s, ok
}

func (rec *recorder) takeNodePost(traceID uint64) (postSpan, bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s, ok := rec.nodePosts[traceID]
	delete(rec.nodePosts, traceID)
	return s, ok
}

func (rec *recorder) takeGets(at hop, id string) []span {
	key := getKey{at: at, id: id}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := rec.gets[key]
	delete(rec.gets, key)
	return s
}

// jobTrace is everything recorded about one traced job.
type jobTrace struct {
	t0, tAck, tEnd               time.Time
	gwPost                       span // zero without a gateway
	nodePost                     span
	submitted, started, finished time.Time
	gwGets, nodeGets             []span
}

// stageNames are the links of the chain, in order. Their durations sum to
// the client latency.
var stageNames = []string{
	"http.submit_net_us",
	"mesh.route_forward_us",
	"taskserve.decode_admit_us",
	"taskserve.queue_wait_us",
	"taskserve.run_us",
	"taskserve.notify_us",
}

// stages splits one job's client latency along the chain. Without a
// gateway the route-forward link is zero.
func (jt *jobTrace) stages() [6]time.Duration {
	first := jt.nodePost.in
	var route time.Duration
	if !jt.gwPost.in.IsZero() {
		first = jt.gwPost.in
		route = jt.nodePost.in.Sub(jt.gwPost.in)
	}
	return [6]time.Duration{
		first.Sub(jt.t0),
		route,
		jt.submitted.Sub(jt.nodePost.in),
		jt.started.Sub(jt.submitted),
		jt.finished.Sub(jt.started),
		jt.tEnd.Sub(jt.finished),
	}
}

// checkTelescoping asserts the chain's contract for one job: no stage is
// negative and the stages sum to the latency within tol (a share of it).
// It returns the relative error.
func checkTelescoping(stages []time.Duration, latency time.Duration, tol float64) (float64, error) {
	var sum time.Duration
	for i, d := range stages {
		if d < 0 {
			return 0, fmt.Errorf("stage %d is negative: %v", i, d)
		}
		sum += d
	}
	if latency <= 0 {
		return 0, fmt.Errorf("latency %v is not positive", latency)
	}
	rel := math.Abs(float64(sum-latency)) / float64(latency)
	if rel > tol {
		return rel, fmt.Errorf("stages sum to %v, latency is %v (off by %.2f%%)", sum, latency, rel*100)
	}
	return rel, nil
}

// selfTime is a span's duration minus the part of it its children cover
// (children may overlap each other and stick out of the parent).
func selfTime(parent span, children []span) time.Duration {
	var clipped []span
	for _, c := range children {
		if c.in.Before(parent.in) {
			c.in = parent.in
		}
		if c.out.After(parent.out) {
			c.out = parent.out
		}
		if c.out.After(c.in) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].in.Before(clipped[j].in) })
	self := parent.dur()
	var coveredTo time.Time // everything before it is already subtracted
	for _, c := range clipped {
		if c.in.Before(coveredTo) {
			c.in = coveredTo
		}
		if c.out.After(c.in) {
			self -= c.dur()
			coveredTo = c.out
		}
	}
	return self
}

// pollSelf is the work the node's status handlers did for this job: each
// GET span minus the part spent blocked on the unfinished job (the
// long-poll wait is the job's time, not the handler's).
func (jt *jobTrace) pollSelf() time.Duration {
	pending := []span{{jt.submitted, jt.finished}}
	var d time.Duration
	for _, g := range jt.nodeGets {
		d += selfTime(g, pending)
	}
	return d
}

// gatewaySelf is the gateway's own time on the submit path (its POST span
// minus the node's) and on the read path (its GET spans minus the upstream
// GETs they cover).
func (jt *jobTrace) gatewaySelf() (submit, relay time.Duration) {
	if jt.gwPost.in.IsZero() {
		return 0, 0
	}
	submit = selfTime(jt.gwPost, []span{jt.nodePost})
	for _, g := range jt.gwGets {
		relay += selfTime(g, jt.nodeGets)
	}
	return submit, relay
}

// traceSummary aggregates the traced window.
type traceSummary struct {
	jobs             int
	stageMeanUS      [6]float64
	queueWaitP99US   float64
	journalAckMeanUS float64
	ackMeanUS        float64
	latencyMeanUS    float64
	pollSelfMeanUS   float64
	gwSubmitSelfUS   float64
	gwRelaySelfUS    float64
	nodePollsPerJob  float64 // status GETs the nodes served per job
	gwPollsPerJob    float64 // status GETs the gateway served per job (0 without one)
	maxSumErr        float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarize reduces the traced jobs to per-job means, asserting the
// telescoping contract on every job.
func summarize(traces []jobTrace) (traceSummary, error) {
	var s traceSummary
	s.jobs = len(traces)
	if s.jobs == 0 {
		return s, fmt.Errorf("traced window recorded no jobs")
	}
	var qw []float64
	var nodePolls, gwPolls int
	for i := range traces {
		jt := &traces[i]
		st := jt.stages()
		latency := jt.tEnd.Sub(jt.t0)
		rel, err := checkTelescoping(st[:], latency, 0.01)
		if err != nil {
			return s, fmt.Errorf("traced job %d: %w", i, err)
		}
		s.maxSumErr = math.Max(s.maxSumErr, rel)
		for k, d := range st {
			s.stageMeanUS[k] += us(d)
		}
		qw = append(qw, us(st[3]))
		s.journalAckMeanUS += us(jt.nodePost.out.Sub(jt.submitted))
		s.ackMeanUS += us(jt.tAck.Sub(jt.t0))
		s.latencyMeanUS += us(latency)
		s.pollSelfMeanUS += us(jt.pollSelf())
		gs, gr := jt.gatewaySelf()
		s.gwSubmitSelfUS += us(gs)
		s.gwRelaySelfUS += us(gr)
		nodePolls += len(jt.nodeGets)
		gwPolls += len(jt.gwGets)
	}
	n := float64(s.jobs)
	for k := range s.stageMeanUS {
		s.stageMeanUS[k] /= n
	}
	s.queueWaitP99US = stats.Percentile(qw, 99)
	s.journalAckMeanUS /= n
	s.ackMeanUS /= n
	s.latencyMeanUS /= n
	s.pollSelfMeanUS /= n
	s.gwSubmitSelfUS /= n
	s.gwRelaySelfUS /= n
	s.nodePollsPerJob = float64(nodePolls) / n
	s.gwPollsPerJob = float64(gwPolls) / n
	return s, nil
}

// traceFileJobs caps how many jobs' spans the trace file holds; the summary
// covers every traced job.
const traceFileJobs = 2000

// fileSpan is one span in the trace file. Times are microseconds since the
// first span in the file; parent indexes into the same job's span list.
type fileSpan struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Parent  int     `json:"parent"` // -1 for the job's root span
	SelfUS  float64 `json:"self_us"`
}

type fileJob struct {
	Job   int        `json:"job"`
	Spans []fileSpan `json:"spans"`
}

// jobSpans lays one job out as a span tree: the client's view of the job at
// the root, the submit exchange and each poll exchange beneath it with the
// handlers they reached nested inside, and the node's queue and run
// intervals beneath the handler that admitted the job.
func (jt *jobTrace) jobSpans(origin time.Time) []fileSpan {
	type node struct {
		name   string
		s      span
		parent int
	}
	nodes := []node{{"client.job", span{jt.t0, jt.tEnd}, -1}}
	add := func(name string, s span, parent int) int {
		nodes = append(nodes, node{name, s, parent})
		return len(nodes) - 1
	}
	submit := add("client.submit", span{jt.t0, jt.tAck}, 0)
	at := submit
	if !jt.gwPost.in.IsZero() {
		at = add("gateway.post", jt.gwPost, at)
	}
	add("node.post", jt.nodePost, at)
	add("node.queue", span{jt.submitted, jt.started}, 0)
	add("node.run", span{jt.started, jt.finished}, 0)
	for _, g := range jt.gwGets {
		gi := add("gateway.get", g, 0)
		for _, ng := range jt.nodeGets {
			if !ng.in.Before(g.in) && !ng.out.After(g.out) {
				add("node.get", ng, gi)
			}
		}
	}
	if len(jt.gwGets) == 0 {
		for _, ng := range jt.nodeGets {
			add("node.get", ng, 0)
		}
	}
	out := make([]fileSpan, len(nodes))
	for i, n := range nodes {
		var kids []span
		for _, c := range nodes {
			if c.parent == i {
				kids = append(kids, c.s)
			}
		}
		out[i] = fileSpan{
			Name:    n.name,
			StartUS: us(n.s.in.Sub(origin)),
			EndUS:   us(n.s.out.Sub(origin)),
			Parent:  n.parent,
			SelfUS:  us(selfTime(n.s, kids)),
		}
	}
	return out
}

// writeTraceFile writes the in-memory spans to dir/trace-<workload>.json.
func writeTraceFile(dir, workload string, seed int64, traces []jobTrace, sum traceSummary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := len(traces)
	if n > traceFileJobs {
		n = traceFileJobs
	}
	jobs := make([]fileJob, n)
	for i := 0; i < n; i++ {
		jobs[i] = fileJob{Job: i, Spans: traces[i].jobSpans(traces[0].t0)}
	}
	stageMeans := map[string]float64{}
	for k, name := range stageNames {
		stageMeans[name] = sum.stageMeanUS[k]
	}
	doc := map[string]any{
		"workload":          workload,
		"seed":              seed,
		"jobs_traced":       sum.jobs,
		"jobs_in_file":      n,
		"stage_mean_us":     stageMeans,
		"latency_mean_us":   sum.latencyMeanUS,
		"max_stage_sum_err": sum.maxSumErr,
		"jobs":              jobs,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
