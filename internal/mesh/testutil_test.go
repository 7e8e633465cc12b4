package mesh

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskgrain/internal/chaos"
	"taskgrain/internal/config"
	"taskgrain/internal/taskserve"
	"taskgrain/internal/wire"
)

// writeJSON is how the fakes answer; the gateway's own replies go through
// the same wire helper.
var writeJSON = wire.WriteJSON

// fakeNode is a scriptable taskgraind stand-in: it serves the health and
// counter surfaces the registry heartbeats and lets each test script the
// /v1/jobs behaviour (accept, shed, hang).
type fakeNode struct {
	ts      *httptest.Server
	submits atomic.Int64
	batches atomic.Int64

	mu       sync.Mutex
	counters map[string]float64
	draining bool
	dead     bool // respond 500 everywhere, simulating a sick node

	// submitFn handles POST /v1/jobs. Defaults to accepting with a fresh ID.
	submitFn func(w http.ResponseWriter, r *http.Request)
	// batchFn handles POST /v1/jobs/batch. Defaults to admitting every item.
	batchFn func(w http.ResponseWriter, r *http.Request)
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	f := &fakeNode{counters: map[string]float64{}}
	f.ts = httptest.NewServer(http.HandlerFunc(f.serve))
	t.Cleanup(f.ts.Close)
	return f
}

// newProxiedNode is a fakeNode fronted by a chaos.Proxy: network-level
// faults (hangs, resets, truncation, kill switch) come from the shared
// chaos harness instead of bespoke per-test handler shims.
func newProxiedNode(t *testing.T, pcfg chaos.ProxyConfig) (*fakeNode, *chaos.Proxy) {
	t.Helper()
	f := &fakeNode{counters: map[string]float64{}}
	p := chaos.NewProxy(http.HandlerFunc(f.serve), pcfg)
	f.ts = httptest.NewServer(p)
	t.Cleanup(f.ts.Close)
	return f, p
}

func (f *fakeNode) serve(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	dead, draining := f.dead, f.draining
	snap := make(map[string]float64, len(f.counters))
	for k, v := range f.counters {
		snap[k] = v
	}
	submitFn := f.submitFn
	batchFn := f.batchFn
	f.mu.Unlock()
	if dead {
		http.Error(w, "sick", http.StatusInternalServerError)
		return
	}
	switch {
	case r.URL.Path == "/healthz":
		status := "ok"
		if draining {
			status = "draining"
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": status})
	case r.URL.Path == "/debug/counters":
		writeJSON(w, http.StatusOK, snap)
	case r.URL.Path == "/v1/jobs" && r.Method == http.MethodPost:
		f.submits.Add(1)
		if submitFn != nil {
			submitFn(w, r)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id": "n-" + strconv.FormatInt(f.submits.Load(), 10), "state": "queued",
		})
	case r.URL.Path == "/v1/jobs/batch" && r.Method == http.MethodPost:
		f.batches.Add(1)
		if batchFn != nil {
			batchFn(w, r)
			return
		}
		var req struct {
			Jobs []map[string]any `json:"jobs"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		results := make([]map[string]any, len(req.Jobs))
		for i := range req.Jobs {
			results[i] = map[string]any{"status": http.StatusAccepted, "job": map[string]any{
				"id":    "b-" + strconv.FormatInt(f.batches.Load(), 10) + "-" + strconv.Itoa(i),
				"state": "queued",
			}}
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"admitted": len(req.Jobs), "shed": 0, "results": results,
		})
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": "done"})
	default:
		http.NotFound(w, r)
	}
}

func (f *fakeNode) set(fn func(f *fakeNode)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

// name returns the host:port identity the registry will use for the node.
func (f *fakeNode) name() string {
	u, _ := url.Parse(f.ts.URL)
	return u.Host
}

// testMeshConfig returns a fast-heartbeat configuration over the given node
// URLs, suitable for unit tests.
func testMeshConfig(nodes ...string) config.Mesh {
	cfg := config.DefaultMesh()
	cfg.Addr = "127.0.0.1:0"
	cfg.Nodes = nodes
	cfg.HeartbeatInterval = 10 * time.Millisecond
	cfg.DownAfter = 2
	cfg.MaxSubmitAttempts = 4
	cfg.MaxBackoff = 30 * time.Millisecond
	cfg.HedgeDelay = 50 * time.Millisecond
	cfg.RequestTimeout = 2 * time.Second
	return cfg
}

// startMesh builds and starts a gateway over the nodes, serving its handler
// on an httptest server.
func startMesh(t *testing.T, cfg config.Mesh) (*Mesh, *httptest.Server) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	gw := httptest.NewServer(m.Handler())
	t.Cleanup(func() {
		gw.Close()
		m.Stop()
	})
	return m, gw
}

// buildServeNode starts a real in-process taskserve node (no HTTP front).
func buildServeNode(t *testing.T, mutate func(*config.Server)) *taskserve.Server {
	t.Helper()
	cfg := config.DefaultServer()
	cfg.Workers = 2
	cfg.TelemetryInterval = 5 * time.Millisecond
	cfg.ShedMinTasks = 1e12 // keep admission out of routing tests
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := taskserve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() { s.Close() })
	return s
}

// startServeNode runs a real in-process taskserve node and returns it with
// its HTTP front. The front is returned separately so tests can kill the
// network face while the server itself stays up (a node death as the mesh
// sees one).
func startServeNode(t *testing.T, mutate func(*config.Server)) (*taskserve.Server, *httptest.Server) {
	t.Helper()
	s := buildServeNode(t, mutate)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// startProxiedServeNode is startServeNode with a chaos.Proxy front: the
// proxy's kill switch and fault injections model the node's network face
// dying or degrading while the taskserve behind it keeps running.
func startProxiedServeNode(t *testing.T, pcfg chaos.ProxyConfig, mutate func(*config.Server)) (*taskserve.Server, *chaos.Proxy, *httptest.Server) {
	t.Helper()
	s := buildServeNode(t, mutate)
	p := chaos.NewProxy(s.Handler(), pcfg)
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return s, p, front
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
