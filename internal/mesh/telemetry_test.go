package mesh

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
)

// fetchOpenMetrics GETs path from the gateway and validates the exposition,
// returning its text.
func fetchOpenMetrics(t *testing.T, gw, path string) string {
	t.Helper()
	resp, err := http.Get(gw + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("GET %s Content-Type = %q", path, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateOpenMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("GET %s exposition invalid: %v\n%s", path, err, raw)
	}
	if n == 0 {
		t.Fatalf("GET %s exposed no samples", path)
	}
	return string(raw)
}

// TestGatewayLoopCounters: the gateway's background loops count on its own
// registry, and the per-node heartbeat loops all add into one pair. The
// gateway samples nothing of its own — node verdicts arrive with the
// heartbeats — so it runs no telemetry sampler.
func TestGatewayLoopCounters(t *testing.T) {
	n1, n2 := newFakeNode(t), newFakeNode(t)
	cfg := testMeshConfig(n1.ts.URL, n2.ts.URL)
	cfg.JournalDir = t.TempDir()
	m, _ := startMesh(t, cfg)
	reg := m.Counters()
	for _, name := range []string{"heartbeat", "gateway-sweep", "journal-flush"} {
		for _, leaf := range []string{"count/runs", "time/busy"} {
			if _, ok := reg.Get("/loops{" + name + "}/" + leaf); !ok {
				t.Fatalf("/loops{%s}/%s not registered", name, leaf)
			}
		}
	}
	if _, ok := reg.Get("/loops{telemetry-sample}/count/runs"); ok {
		t.Fatal("the gateway runs a telemetry sampler")
	}
	waitFor(t, 5*time.Second, "both nodes' heartbeats to count into one pair", func() bool {
		beats, _ := reg.Value("/loops{heartbeat}/count/runs")
		busy, _ := reg.Value("/loops{heartbeat}/time/busy")
		return beats >= 4 && busy > 0
	})
}

func TestMeshMetricsEndpointsServeOpenMetrics(t *testing.T) {
	n1, n2 := newFakeNode(t), newFakeNode(t)
	for _, f := range []*fakeNode{n1, n2} {
		f.set(func(f *fakeNode) {
			f.counters = map[string]float64{
				"/server/idle-rate":         0.5,
				"/server/jobs/queued":       1,
				"/threads/idle-rate":        0.5,
				"/threads/count/cumulative": 128,
			}
		})
	}
	m, gw := startMesh(t, testMeshConfig(n1.ts.URL, n2.ts.URL))
	waitFor(t, 5*time.Second, "heartbeats to snapshot both nodes", func() bool {
		for _, n := range m.NodeRegistry().Nodes() {
			if snap, _ := n.Snapshot(); len(snap) == 0 {
				return false
			}
		}
		return true
	})

	// /metrics is the gateway's own registry: routing counters, per-node
	// mirrors, cluster rollups — all labelled with the gateway's node
	// identity (except the /mesh/node{...} instances, whose node label is
	// the member node).
	text := fetchOpenMetrics(t, gw.URL, "/metrics")
	for _, want := range []string{
		"taskgrain_mesh_cluster_idle_rate{node=",
		"taskgrain_mesh_cluster_queued_jobs{node=",
		"# TYPE taskgrain_mesh_jobs_submitted counter",
		"# TYPE taskgrain_mesh_trace_hops counter",
		fmt.Sprintf("taskgrain_mesh_node_idle_rate{node=%q}", n1.name()),
		fmt.Sprintf("taskgrain_mesh_node_routed_jobs_total{node=%q}", n2.name()),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// /mesh/metrics adds every member node's heartbeat snapshot, each sample
	// relabelled with that node's identity.
	text = fetchOpenMetrics(t, gw.URL, "/mesh/metrics")
	for _, want := range []string{
		"taskgrain_mesh_cluster_idle_rate{node=",
		fmt.Sprintf("taskgrain_threads_idle_rate{node=%q}", n1.name()),
		fmt.Sprintf("taskgrain_threads_idle_rate{node=%q}", n2.name()),
		fmt.Sprintf("taskgrain_server_jobs_queued{node=%q}", n2.name()),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/mesh/metrics missing %q:\n%s", want, text)
		}
	}

	// The relayed watchdog verdicts: one per node, quiet — these fakes
	// export none (TestGatewayRelaysNodeVerdicts covers a firing one).
	resp, err := http.Get(gw.URL + "/telemetry/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var alerts struct {
		Alerts []telemetry.Alert `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(alerts.Alerts) != 2 {
		t.Fatalf("alerts = %+v, want one per node", alerts.Alerts)
	}
	for _, a := range alerts.Alerts {
		if !strings.HasPrefix(a.Subject, "node ") || a.Active {
			t.Fatalf("relayed alert %+v", a)
		}
	}
}

// TestGatewayRelaysNodeVerdicts: the gateway's /telemetry/alerts is each
// member's own watchdog verdict, read off the heartbeat snapshot, not a
// second judgement: a node whose watchdog fires on the starvation wall shows
// up at the gateway with the node's wall, suggestion and window figures,
// the quiet node stays quiet, and the router reads the same verdict.
func TestGatewayRelaysNodeVerdicts(t *testing.T) {
	starved, starvedFront := startServeNode(t, nil)
	_, quietFront := startServeNode(t, nil)
	// With its sampler stopped the node's verdict is exactly the readings
	// fed here — a minute on, past every reading its own engine took —
	// idle-rate pinned with tasks on board but none starting.
	starved.Telemetry().Stop()
	epoch := time.Now().Add(time.Minute)
	for i := 0; i < 4; i++ {
		starved.Watchdog().Observe(telemetry.Reading{
			At:       epoch.Add(time.Duration(i) * time.Second),
			IdleRate: 0.9,
			Elapsed:  time.Second,
			Busy:     true,
		})
	}
	want := starved.Watchdog().Current()
	if !want.Active || want.Wall != telemetry.WallStarvation {
		t.Fatalf("node verdict = %+v, want an active starvation alert", want)
	}

	// Start sweeps both nodes before it returns, so the snapshots are in.
	m, gw := startMesh(t, testMeshConfig(starvedFront.URL, quietFront.URL))
	starvedName := strings.TrimPrefix(starvedFront.URL, "http://")
	resp, err := http.Get(gw.URL + "/telemetry/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Alerts []telemetry.Alert `json:"alerts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(body.Alerts) != 2 {
		t.Fatalf("alerts = %+v, want one per node", body.Alerts)
	}
	for _, a := range body.Alerts {
		if a.Subject != "node "+starvedName {
			if a.Active {
				t.Fatalf("quiet node relayed as alerting: %+v", a)
			}
			continue
		}
		want.Subject, want.Since = a.Subject, time.Time{}
		if a != want {
			t.Fatalf("gateway relayed %+v, node judged %+v", a, want)
		}
	}
	for _, n := range m.NodeRegistry().Nodes() {
		if n.Name() == starvedName && !n.alerted() {
			t.Fatalf("the router does not see %s's alert", n.Name())
		}
	}
}

func TestMeshTraceSpilloverAndRouteHops(t *testing.T) {
	shedder, taker := newFakeNode(t), newFakeNode(t)
	var gotHeader string
	shedder.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 0} // ranks first
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": "shed"})
		}
	})
	taker.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 5}
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			gotHeader = r.Header.Get(trace.Header)
			writeJSON(w, http.StatusAccepted, map[string]any{"id": "n-1", "state": "queued"})
		}
	})
	cfg := testMeshConfig(shedder.ts.URL, taker.ts.URL)
	cfg.RoutePolicy = config.MeshPolicyLeastInflight
	m, gw := startMesh(t, cfg)

	parent := trace.NewSpanContext()
	req, err := http.NewRequest(http.MethodPost, gw.URL+"/v1/jobs",
		strings.NewReader(`{"kind":"fibonacci","size":10}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, parent.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		ID   string `json:"id"`
		Mesh struct {
			TraceID string `json:"trace_id"`
		} `json:"mesh"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	// The mesh job joins the client's trace: same trace ID end to end.
	wantTrace := fmt.Sprintf("%016x", parent.TraceID)
	if body.Mesh.TraceID != wantTrace {
		t.Fatalf("mesh trace_id = %q, want %q", body.Mesh.TraceID, wantTrace)
	}
	// The node that admitted the job saw a child span of the same trace.
	sc, ok := trace.ParseSpanContext(gotHeader)
	if !ok {
		t.Fatalf("taker node got no parseable trace header: %q", gotHeader)
	}
	if sc.TraceID != parent.TraceID || sc.SpanID == parent.SpanID {
		t.Fatalf("forwarded span %+v not a child of %+v", sc, parent)
	}

	// One spill hop off the shedder, one route hop onto the taker, plus the
	// placement phase-begin span edge.
	kinds := map[trace.Kind]int{}
	for _, ev := range m.Tracer().Events() {
		kinds[ev.Kind]++
	}
	if kinds[trace.SpillHop] != 1 || kinds[trace.Route] != 1 || kinds[trace.PhaseBegin] != 1 {
		t.Fatalf("hop events = %v", kinds)
	}
	if v, _ := m.Counters().Value("/mesh/trace/hops"); v != 2 {
		t.Fatalf("/mesh/trace/hops = %v, want 2 (spill+route)", v)
	}

	// /mesh/trace serves the hops as a Chrome trace document.
	tresp, err := http.Get(gw.URL + "/mesh/trace")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/mesh/trace served no events")
	}
}

// TestMeshTraceFailoverMidSpan is the cross-hop tracing acceptance test:
// three real nodes, one traced job, its node killed mid-run. The failover
// hop must stay inside the same trace — one trace ID across the client
// header, the original placement, and the re-placement — and the dead
// node's never-finished placement span must render closed at the last
// observed timestamp instead of dangling.
func TestMeshTraceFailoverMidSpan(t *testing.T) {
	fronts := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range fronts {
		_, ts := startServeNode(t, nil)
		fronts[i] = ts
		urls[i] = ts.URL
	}
	m, gw := startMesh(t, testMeshConfig(urls...))

	parent := trace.NewSpanContext()
	spec := `{"kind":"stencil1d","size":500000,"steps":400}`
	req, err := http.NewRequest(http.MethodPost, gw.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, parent.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID   string `json:"id"`
		Mesh struct {
			Node    string `json:"node"`
			TraceID string `json:"trace_id"`
		} `json:"mesh"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	wantTrace := fmt.Sprintf("%016x", parent.TraceID)
	if sub.Mesh.TraceID != wantTrace {
		t.Fatalf("trace_id at submit = %q, want %q", sub.Mesh.TraceID, wantTrace)
	}

	// Kill the placed node's network face while the job runs.
	killed := false
	for i, u := range urls {
		if strings.TrimPrefix(u, "http://") == sub.Mesh.Node {
			fronts[i].CloseClientConnections()
			fronts[i].Close()
			killed = true
		}
	}
	if !killed {
		t.Fatalf("placed node %q not among fronts %v", sub.Mesh.Node, urls)
	}

	// Poll through the gateway: the failover must finish the job elsewhere
	// under the same trace ID.
	deadline := time.Now().Add(60 * time.Second)
	var fin struct {
		State string `json:"state"`
		Mesh  struct {
			Node    string `json:"node"`
			Retries int    `json:"retries"`
			TraceID string `json:"trace_id"`
		} `json:"mesh"`
	}
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished after failover: %+v", fin)
		}
		resp, err := http.Get(gw.URL + "/v1/jobs/" + sub.ID + "?wait=true&timeout=10s")
		if err != nil {
			t.Fatal(err)
		}
		fin = struct {
			State string `json:"state"`
			Mesh  struct {
				Node    string `json:"node"`
				Retries int    `json:"retries"`
				TraceID string `json:"trace_id"`
			} `json:"mesh"`
		}{}
		err = json.NewDecoder(resp.Body).Decode(&fin)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if fin.State == "done" || fin.State == "failed" || fin.State == "cancelled" {
			break
		}
	}
	if fin.State != "done" || fin.Mesh.Retries < 1 {
		t.Fatalf("failover view: %+v", fin)
	}
	if fin.Mesh.Node == sub.Mesh.Node {
		t.Fatalf("job finished on the killed node %q", fin.Mesh.Node)
	}
	if fin.Mesh.TraceID != wantTrace {
		t.Fatalf("trace_id after failover = %q, want %q (single trace across hops)",
			fin.Mesh.TraceID, wantTrace)
	}

	// The hop record: an initial route, a failover hop, two placement span
	// begins, and exactly one end — the killed node's span never finished.
	kinds := map[trace.Kind]int{}
	for _, ev := range m.Tracer().Events() {
		kinds[ev.Kind]++
	}
	if kinds[trace.Route] < 1 || kinds[trace.FailoverHop] < 1 {
		t.Fatalf("hop events = %v, want route and failover hops", kinds)
	}
	if kinds[trace.PhaseBegin] != kinds[trace.PhaseEnd]+1 {
		t.Fatalf("span edges = %v, want exactly one open span (the killed placement)", kinds)
	}

	// The Chrome rendering closes that open span at the max observed
	// timestamp rather than dropping it or letting it dangle.
	var buf bytes.Buffer
	if err := m.Tracer().WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	maxEnd := 0.0
	for _, ev := range doc.TraceEvents {
		if end := ev.Ts + ev.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	openSeen := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && strings.Contains(ev.Name, "(open)") {
			openSeen = true
			// ts/dur are µs floats; reconstructing the end loses up to an
			// ULP against ends computed from other events.
			if end := ev.Ts + ev.Dur; math.Abs(end-maxEnd) > 0.01 {
				t.Fatalf("open span closed at %v, want max observed ts %v", end, maxEnd)
			}
		}
	}
	if !openSeen {
		t.Fatalf("killed placement span not rendered as closed-open slice:\n%s", buf.String())
	}
}
