package mesh

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"taskgrain/internal/chaos"
	"taskgrain/internal/config"
	"taskgrain/internal/journal"
	"taskgrain/internal/taskserve"
	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// postTraced POSTs a body to the gateway under a fixed client trace context
// and returns the status and the raw reply.
func postTraced(t *testing.T, url, body string, parent trace.SpanContext) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, parent.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// walPlacements reads a crashed gateway's journal back as its place records.
func walPlacements(t *testing.T, dir string) []meshWalRecord {
	t.Helper()
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []meshWalRecord
	for _, r := range rec.Records {
		var w meshWalRecord
		if err := json.Unmarshal(r.Payload, &w); err != nil {
			t.Fatal(err)
		}
		if w.T == meshWalPlace {
			out = append(out, w)
		}
	}
	return out
}

// hopKinds strips the timestamps off a gateway's trace events.
func hopKinds(m *Mesh) []trace.Event {
	events := m.Tracer().Events()
	for i := range events {
		events[i].TsNs = 0
	}
	return events
}

// TestMeshSingleIsBatchOfOne: the same spec through POST /v1/jobs and through
// a one-item POST /v1/jobs/batch, on two fresh gateways over one node that
// spills once first, must leave the same placement record, trace hops and
// mesh view — both run the one placement loop.
func TestMeshSingleIsBatchOfOne(t *testing.T) {
	shedder, taker := newFakeNode(t), newFakeNode(t)
	shedder.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 0} // ranks first
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			wire.WriteError(w, http.StatusTooManyRequests, "shed")
		}
		f.batchFn = func(w http.ResponseWriter, r *http.Request) {
			wire.WriteBatch(w, []wire.BatchItem{{Status: http.StatusTooManyRequests, Error: "shed", RetryAfter: 1}})
		}
	})
	view := &wire.JobView{ID: "n-1", Kind: "fibonacci", Size: 10, State: wire.JobQueued}
	taker.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 5}
		f.submitFn = func(w http.ResponseWriter, r *http.Request) { wire.WriteJSON(w, http.StatusAccepted, view) }
		f.batchFn = func(w http.ResponseWriter, r *http.Request) {
			wire.WriteBatch(w, []wire.BatchItem{{Status: http.StatusAccepted, Job: view}})
		}
	})
	const spec = `{"kind":"fibonacci","size":10,"idempotency_key":"one-key"}`
	parent := trace.SpanContext{TraceID: 0xabc, SpanID: 1}

	type outcome struct {
		View   wire.JobView
		Places []meshWalRecord
		Hops   []trace.Event
	}
	run := func(path, body string, item func([]byte) wire.JobView) outcome {
		cfg := testMeshConfig(shedder.ts.URL, taker.ts.URL)
		cfg.RoutePolicy = config.MeshPolicyLeastInflight
		cfg.JournalDir = t.TempDir()
		m, gw := startMesh(t, cfg)
		waitRoutable(t, m, "fibonacci", 2)
		status, raw := postTraced(t, gw.URL+path, body, parent)
		if status != http.StatusAccepted {
			t.Fatalf("%s: %d %s", path, status, raw)
		}
		m.Crash()
		return outcome{View: item(raw), Places: walPlacements(t, cfg.JournalDir), Hops: hopKinds(m)}
	}

	single := run("/v1/jobs", spec, func(raw []byte) wire.JobView {
		var v wire.JobView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		return v
	})
	batch := run("/v1/jobs/batch", `{"jobs":[`+spec+`]}`, func(raw []byte) wire.JobView {
		var reply wire.BatchResponse
		if err := json.Unmarshal(raw, &reply); err != nil || len(reply.Results) != 1 || reply.Results[0].Job == nil {
			t.Fatalf("batch reply %s: %v", raw, err)
		}
		return *reply.Results[0].Job
	})
	if !reflect.DeepEqual(single, batch) {
		t.Fatalf("single and one-item batch diverge:\n single %+v\n batch  %+v", single, batch)
	}
	want := wire.MeshInfo{Node: taker.name(), Spills: 1, TraceID: "0000000000000abc"}
	if single.View.ID != "m-1" || single.View.Mesh == nil || *single.View.Mesh != want {
		t.Fatalf("mesh view = %+v (mesh %+v), want m-1 with %+v", single.View, single.View.Mesh, want)
	}
	if len(single.Places) != 1 || single.Places[0].Node != taker.name() || single.Places[0].NodeJobID != "n-1" ||
		single.Places[0].Epoch != 1 || single.Places[0].Key != "one-key" {
		t.Fatalf("placement records = %+v", single.Places)
	}
	if len(single.Hops) != 3 || single.Hops[0].Kind != trace.SpillHop || single.Hops[1].Kind != trace.Route ||
		single.Hops[2].Kind != trace.PhaseBegin {
		t.Fatalf("hops = %+v, want spill, route, phase-begin", single.Hops)
	}
}

// TestMeshBatchItemReplaysUndecodableAccept is the batch-item edition of
// TestMeshSubmitReplaysUndecodableAccept: a per-item 202 with no decodable id
// replays that item on the *same* node until it names the job, instead of
// giving the item up with 502 or orphaning the admitted run elsewhere.
func TestMeshBatchItemReplaysUndecodableAccept(t *testing.T) {
	flaky, other := newFakeNode(t), newFakeNode(t)
	flaky.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 0}
		f.batchFn = func(w http.ResponseWriter, r *http.Request) {
			if f.batches.Load() == 1 {
				wire.WriteBatch(w, []wire.BatchItem{
					{Status: http.StatusAccepted, Job: &wire.JobView{ID: "n-1", State: wire.JobQueued}},
					{Status: http.StatusAccepted, Job: &wire.JobView{State: wire.JobQueued}}, // no id
				})
				return
			}
			wire.WriteBatch(w, []wire.BatchItem{
				{Status: http.StatusAccepted, Job: &wire.JobView{ID: "n-2", State: wire.JobQueued}},
			})
		}
	})
	other.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 5}
	})
	cfg := testMeshConfig(flaky.ts.URL, other.ts.URL)
	cfg.RoutePolicy = config.MeshPolicyLeastInflight
	m, gw := startMesh(t, cfg)
	waitRoutable(t, m, "fibonacci", 2)

	resp, out := postMeshBatch(t, gw.URL, fibBatch(2))
	if resp.StatusCode != http.StatusAccepted || out.Admitted != 2 {
		t.Fatalf("batch through replay: %d %+v", resp.StatusCode, out)
	}
	for i, r := range out.Results {
		mesh, _ := r.Job["mesh"].(map[string]any)
		if r.Status != http.StatusAccepted || mesh == nil || mesh["node"] != flaky.name() {
			t.Fatalf("item %d not placed on the admitting node: %+v", i, r)
		}
	}
	if flaky.batches.Load() != 2 || other.batches.Load() != 0 {
		t.Fatalf("sub-batches: flaky %d other %d, want a same-node replay (2 and 0)",
			flaky.batches.Load(), other.batches.Load())
	}
	if _, nodeID, _ := m.jobs.list()[1].placement(); nodeID != "n-2" {
		t.Fatalf("replayed item bound to node job %q, want n-2", nodeID)
	}
	if snap := m.Counters().Snapshot(); snap[nodeCounter(flaky.name(), "spills")] != 0 {
		t.Fatalf("same-node replay counted as a spill: %v", snap)
	}
}

// TestMeshFailoverRunsThePlacementLoop: a failover is a batch of one through
// the same spillover loop as a client submit — it spills past a shedding node
// within the pass — carrying the epoch it observed, so the re-placement lands
// at epoch 2 with retries 1, journaled and traced as a failover hop.
func TestMeshFailoverRunsThePlacementLoop(t *testing.T) {
	home, homeProxy := newProxiedNode(t, chaos.ProxyConfig{})
	shedder, taker := newFakeNode(t), newFakeNode(t)
	home.set(func(f *fakeNode) { f.counters = map[string]float64{"/server/jobs/queued": 0} })
	shedder.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 3}
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			wire.WriteError(w, http.StatusTooManyRequests, "shed")
		}
	})
	var replayKey string
	taker.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 6}
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			var spec wire.JobSpec
			_ = json.NewDecoder(r.Body).Decode(&spec)
			replayKey = spec.IdempotencyKey
			wire.WriteJSON(w, http.StatusAccepted, wire.JobView{ID: "t-1", State: wire.JobQueued})
		}
	})
	cfg := testMeshConfig(home.ts.URL, shedder.ts.URL, taker.ts.URL)
	cfg.RoutePolicy = config.MeshPolicyLeastInflight
	cfg.JournalDir = t.TempDir()
	m, gw := startMesh(t, cfg)
	waitRoutable(t, m, "fibonacci", 3)

	resp, body := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`)
	if mesh, _ := body["mesh"].(map[string]any); resp.StatusCode != http.StatusAccepted || mesh["node"] != home.name() {
		t.Fatalf("submit: %d %v, want placement on the home node", resp.StatusCode, body)
	}
	job, _ := m.jobs.get(body["id"].(string))

	homeProxy.SetDown(true)
	waitRoutable(t, m, "fibonacci", 2) // the ranking the failover sees: shedder, then taker
	got := m.relayStatus(job, "", 0)
	if got.Status != http.StatusOK || got.Job.Mesh.Node != taker.name() || got.Job.Mesh.Retries != 1 || got.Job.Mesh.Spills != 1 {
		t.Fatalf("poll after node death = %+v (mesh %+v), want the taker with retries 1, spills 1", got, got.Job.Mesh)
	}
	if n, nodeID, epoch := job.placement(); n.name != taker.name() || nodeID != "t-1" || epoch != 2 {
		t.Fatalf("placement = %s/%s epoch %d, want taker/t-1 epoch 2", n.name, nodeID, epoch)
	}
	if replayKey != job.key {
		t.Fatalf("failover resubmitted under key %q, want the job's own %q", replayKey, job.key)
	}
	snap := m.Counters().Snapshot()
	if snap["/mesh/jobs/failovers"] != 1 || snap["/mesh/jobs/submitted"] != 1 || snap["/mesh/jobs/rejected"] != 0 ||
		snap[nodeCounter(shedder.name(), "spills")] != 1 {
		t.Fatalf("failover accounting wrong: %v", snap)
	}
	var hops []trace.Kind
	for _, ev := range m.Tracer().Events() {
		hops = append(hops, ev.Kind)
	}
	wantHops := []trace.Kind{trace.Route, trace.PhaseBegin, trace.SpillHop, trace.FailoverHop, trace.PhaseBegin, trace.PhaseEnd}
	if !reflect.DeepEqual(hops, wantHops) {
		t.Fatalf("hops = %v, want %v", hops, wantHops)
	}
	m.Crash()
	places := walPlacements(t, cfg.JournalDir)
	if len(places) != 2 || places[1].Epoch != 2 || places[1].Node != taker.name() || places[1].NodeJobID != "t-1" {
		t.Fatalf("journaled placements = %+v, want the re-placement at epoch 2 on the taker", places)
	}
}

// TestWaitQueryParityNodeAndGateway: the gateway relays a poll's raw query to
// the node, so it must judge wait/timeout exactly as the node will — the same
// queries get the same verdict at both tiers. At the parent of this change
// the gateway accepted any ParseBool spelling of wait and clamped an over-max
// timeout that the node then refused.
func TestWaitQueryParityNodeAndGateway(t *testing.T) {
	_, ts := startServeNode(t, nil)
	_, gw := startMesh(t, testMeshConfig(ts.URL))
	resp, body := postJob(t, gw.URL, `{"kind":"fibonacci","size":10,"grain":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	meshID := body["id"].(string)
	get := func(url string) (int, wire.JobView) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v wire.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, v
	}
	if _, v := get(gw.URL + "/v1/jobs/" + meshID + "?wait=true&timeout=10s"); v.State != wire.JobDone {
		t.Fatalf("job ended %s", v.State)
	}

	for _, tc := range []struct {
		query string
		want  int
	}{
		{"", 200},
		{"?wait=true", 200},
		{"?wait=1", 200},
		{"?wait=T", 200}, // not a long-poll at either tier
		{"?wait=TRUE&timeout=bogus", 200},
		{"?wait=false&timeout=bogus", 200},
		{"?wait=true&timeout=5m", 200},
		{"?wait=true&timeout=10m", 400},
		{"?wait=1&timeout=0s", 400},
		{"?wait=true&timeout=-1s", 400},
		{"?wait=true&timeout=bogus", 400},
	} {
		nodeStatus, nodeView := get(ts.URL + "/v1/jobs/j-1" + tc.query)
		gwStatus, gwView := get(gw.URL + "/v1/jobs/" + meshID + tc.query)
		if nodeStatus != tc.want || gwStatus != tc.want || nodeView.Error != gwView.Error {
			t.Errorf("%q: node %d %q, gateway %d %q, want %d with one message",
				tc.query, nodeStatus, nodeView.Error, gwStatus, gwView.Error, tc.want)
		}
	}
}

// TestRetryAfterRoundsUpAtBothTiers: a shedding node's sub-second and 1.5 s
// hints reach the client as whole seconds rounded up — never truncated to a
// shorter backoff than the node asked for — whether it asks the node or a
// gateway in front of it, on the header and on the batch item.
func TestRetryAfterRoundsUpAtBothTiers(t *testing.T) {
	for _, tc := range []struct {
		hint time.Duration
		secs int
	}{{500 * time.Millisecond, 1}, {1500 * time.Millisecond, 2}} {
		want := strconv.Itoa(tc.secs)
		// Never started, so the one queue slot stays taken and every submit
		// sheds with the configured hint.
		cfg := config.DefaultServer()
		cfg.MaxQueuedJobs = 1
		cfg.RetryAfter = tc.hint
		node, err := taskserve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		if _, shed := node.Submit(taskserve.JobSpec{Kind: "fibonacci", Size: 10}); shed != nil {
			t.Fatal("filler shed")
		}
		front := httptest.NewServer(node.Handler())
		t.Cleanup(front.Close)
		mcfg := testMeshConfig(front.URL)
		mcfg.MaxSubmitAttempts = 1
		m, gw := startMesh(t, mcfg)
		waitRoutable(t, m, "fibonacci", 1)

		for _, base := range []string{front.URL, gw.URL} {
			resp, body := postJob(t, base, `{"kind":"fibonacci","size":10}`)
			if got := resp.Header.Get("Retry-After"); got != want || body["error"] == nil {
				t.Errorf("%v hint via %s: single Retry-After %q (%d %v), want %q", tc.hint, base, got, resp.StatusCode, body, want)
			}
			bresp, out := postMeshBatch(t, base, fibBatch(1))
			if got := bresp.Header.Get("Retry-After"); got != want || len(out.Results) != 1 || out.Results[0].RetryAfter != tc.secs {
				t.Errorf("%v hint via %s: batch Retry-After %q, item %+v, want %q", tc.hint, base, got, out.Results, want)
			}
		}
	}
}

// TestUnknownSpecFieldRefusedAtFirstHop: the gateway decodes specs as
// strictly as a node does, so a misspelt field is a 400 with the node's own
// message — on both endpoints — instead of a field the typed round-trip
// silently drops on the way upstream.
func TestUnknownSpecFieldRefusedAtFirstHop(t *testing.T) {
	node, ts := startServeNode(t, nil)
	_, gw := startMesh(t, testMeshConfig(ts.URL))
	for _, req := range []struct{ path, body string }{
		{"/v1/jobs", `{"kind":"fibonacci","size":10,"grian":5}`},
		{"/v1/jobs/batch", `{"jobs":[{"kind":"fibonacci","size":10,"grian":5}]}`},
	} {
		var replies [2]wire.Error
		for i, base := range []string{ts.URL, gw.URL} {
			resp, err := http.Post(base+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&replies[i]); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		if replies[0].Status != http.StatusBadRequest || replies[0] != replies[1] || !strings.Contains(replies[0].Error, `"grian"`) {
			t.Errorf("%s: node %+v, gateway %+v, want one 400 naming the field", req.path, replies[0], replies[1])
		}
	}
	if got := len(node.Jobs()); got != 0 {
		t.Fatalf("%d jobs reached the node", got)
	}
}

// TestMeshFinishedJobPolledUpstreamOnce: terminal is final, so once the
// gateway has relayed a job's terminal view, repeat polls (plain or long) are
// served from its cache — same bytes, no further node round-trip.
func TestMeshFinishedJobPolledUpstreamOnce(t *testing.T) {
	node := &fakeNode{counters: map[string]float64{}}
	var polls atomic.Int64
	node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			polls.Add(1)
			// A result payload, so an unchanged body means the cache kept the
			// node's whole reply and not just the verdict.
			writeJSON(w, http.StatusOK, map[string]any{
				"id": strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "state": "done",
				"result": map[string]any{"checksum": 55.0, "tasks": 177},
			})
			return
		}
		node.serve(w, r)
	}))
	t.Cleanup(node.ts.Close)
	m, gw := startMesh(t, testMeshConfig(node.ts.URL))
	waitRoutable(t, m, "fibonacci", 1)

	resp, sub := postJob(t, gw.URL, `{"kind":"fibonacci","size":10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, sub)
	}
	poll := func(query string) string {
		t.Helper()
		resp, err := http.Get(gw.URL + "/v1/jobs/" + sub["id"].(string) + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("poll%s: %d %s (%v)", query, resp.StatusCode, body, err)
		}
		return string(body)
	}
	first := poll("")
	if !strings.Contains(first, `"state":"done"`) || !strings.Contains(first, `"checksum":55`) {
		t.Fatalf("first poll = %s, want the node's done view with its result", first)
	}
	for _, query := range []string{"", "?wait=true&timeout=1s"} {
		if again := poll(query); again != first {
			t.Fatalf("repeat poll%s = %s, first poll was %s", query, again, first)
		}
	}
	if got := polls.Load(); got != 1 {
		t.Fatalf("node saw %d status GETs for three polls of a finished job, want 1", got)
	}
	if got := m.terminalC.Raw(); got != 1 {
		t.Fatalf("/mesh/jobs/terminal = %d, want 1", got)
	}
}
