package introspect

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"taskgrain/internal/counters"
	"taskgrain/internal/taskrt"
)

func newServer(t *testing.T) (*httptest.Server, *counters.Registry) {
	t.Helper()
	reg := counters.NewRegistry()
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return srv, reg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestHealthz(t *testing.T) {
	srv, _ := newServer(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestCountersListAndPrefix(t *testing.T) {
	srv, reg := newServer(t)
	a := counters.NewCumulative("/threads/count/cumulative")
	b := counters.NewCumulative("/threads/time/exec-total")
	reg.MustRegister(a)
	reg.MustRegister(b)
	a.Add(7)
	b.Add(123)

	code, body := get(t, srv.URL+"/counters")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var all map[string]float64
	if err := json.Unmarshal([]byte(body), &all); err != nil {
		t.Fatal(err)
	}
	if all["/threads/count/cumulative"] != 7 || all["/threads/time/exec-total"] != 123 {
		t.Fatalf("counters = %v", all)
	}

	code, body = get(t, srv.URL+"/counters?prefix=/threads/count")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var filtered map[string]float64
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 || filtered["/threads/count/cumulative"] != 7 {
		t.Fatalf("filtered = %v", filtered)
	}
}

func TestSingleCounter(t *testing.T) {
	srv, reg := newServer(t)
	c := counters.NewGauge("/threads/idle-rate")
	reg.MustRegister(c)
	c.Set(42)
	code, body := get(t, srv.URL+"/counter/threads/idle-rate")
	if code != 200 || !strings.Contains(body, `"value": 42`) {
		t.Fatalf("counter: %d %q", code, body)
	}
	code, _ = get(t, srv.URL+"/counter/nope")
	if code != 404 {
		t.Fatalf("missing counter code = %d", code)
	}
}

func TestHistogramEndpoint(t *testing.T) {
	srv, reg := newServer(t)
	h := counters.NewHistogram("/threads/time/phase-duration-histogram")
	reg.MustRegister(h)
	reg.MustRegister(counters.NewGauge("/plain"))
	for i := 0; i < 100; i++ {
		h.Observe(1500)
	}
	code, body := get(t, srv.URL+"/histogram/threads/time/phase-duration-histogram")
	if code != 200 {
		t.Fatalf("code %d: %s", code, body)
	}
	var doc struct {
		Count   int64   `json:"count"`
		MeanNs  float64 `json:"mean_ns"`
		Buckets []struct {
			Count int64 `json:"count"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 100 || doc.MeanNs != 1500 || len(doc.Buckets) != 1 {
		t.Fatalf("histogram doc = %+v", doc)
	}
	// Non-histogram counter → 400; unknown → 404.
	if code, _ := get(t, srv.URL+"/histogram/plain"); code != 400 {
		t.Fatalf("non-histogram code = %d", code)
	}
	if code, _ := get(t, srv.URL+"/histogram/none"); code != 404 {
		t.Fatalf("unknown histogram code = %d", code)
	}
}

func TestLiveRuntimeIntrospection(t *testing.T) {
	// End to end: a real runtime's registry served over HTTP while work runs.
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	srv := httptest.NewServer(NewHandler(rt.Counters()))
	defer srv.Close()

	var done atomic.Int64
	g := rt.NewGroup()
	for i := 0; i < 100; i++ {
		g.Spawn(func(*taskrt.Context) { done.Add(1) })
	}
	g.Wait()

	code, body := get(t, srv.URL+"/counter/threads/count/cumulative")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	var doc struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Value != 100 {
		t.Fatalf("live cumulative = %v", doc.Value)
	}
	// Per-worker instance names contain '#', so they go through the query
	// form with escaping.
	code, body = get(t, srv.URL+"/counter?name="+url.QueryEscape("/threads{worker-thread#0}/count/cumulative"))
	if code != 200 {
		t.Fatalf("instance path code = %d (%s)", code, body)
	}
}

func TestServeAndShutdown(t *testing.T) {
	reg := counters.NewRegistry()
	srv, errc := Serve("127.0.0.1:0", reg)
	// Immediate shutdown: channel must close without surfacing an error.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err, ok := <-errc; ok && err != nil {
		t.Fatalf("unexpected serve error: %v", err)
	}
}

func TestPrometheusEndpoint(t *testing.T) {
	srv, reg := newServer(t)
	c := counters.NewCumulative("/threads/count/pending-accesses")
	reg.MustRegister(c)
	c.Add(41)
	pw := counters.NewPerWorker("/threads/count/stolen", 2)
	reg.MustRegister(pw)
	if err := reg.RegisterInstances(pw); err != nil {
		t.Fatal(err)
	}
	pw.Add(1, 9)

	code, body := get(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("code %d", code)
	}
	for _, want := range []string{
		"# TYPE taskgrain_threads_count_stolen counter",
		"taskgrain_threads_count_pending_accesses_total 41",
		"taskgrain_threads_count_stolen_total 9",
		`taskgrain_threads_count_stolen_total{worker="1"} 9`,
		`taskgrain_threads_count_stolen_total{worker="0"} 0`,
		"# EOF",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestCounterQueryFormWithHashNames(t *testing.T) {
	// Per-worker instance names embed '#' ("/threads{worker-thread#3}/...").
	// In a URL path an unescaped '#' starts the fragment, so such names must
	// be reachable through the ?name= query form with escaping.
	srv, reg := newServer(t)
	pw := counters.NewPerWorker("/threads/count/stolen", 4)
	reg.MustRegister(pw)
	if err := reg.RegisterInstances(pw); err != nil {
		t.Fatal(err)
	}
	pw.Add(3, 7)
	pw.Add(0, 2)

	for _, tc := range []struct {
		name string
		want string
	}{
		{"/threads{worker-thread#3}/count/stolen", `"value": 7`},
		{"/threads{worker-thread#0}/count/stolen", `"value": 2`},
		{"/threads{worker-thread#1}/count/stolen", `"value": 0`},
		{"/threads/count/stolen", `"value": 9`}, // aggregate, no '#'
	} {
		code, body := get(t, srv.URL+"/counter?name="+url.QueryEscape(tc.name))
		if code != 200 {
			t.Errorf("%s: code %d (%s)", tc.name, code, body)
			continue
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: body %s missing %s", tc.name, body, tc.want)
		}
		if !strings.Contains(body, tc.name) {
			t.Errorf("%s: response does not echo the name: %s", tc.name, body)
		}
	}

	// The path form truncates at the unescaped '#' (the client would not
	// even send the fragment); the server must refuse, not mis-resolve.
	code, _ := get(t, srv.URL+"/counter/threads{worker-thread#3}/count/stolen")
	if code != 404 {
		t.Errorf("unescaped path form: code %d, want 404", code)
	}
	// Unknown names through the query form are 404 too.
	code, _ = get(t, srv.URL+"/counter?name="+url.QueryEscape("/no/such{worker-thread#9}/counter"))
	if code != 404 {
		t.Errorf("unknown name: code %d, want 404", code)
	}
}

func TestProviderHandlerFollowsRegistrySwaps(t *testing.T) {
	// The provider form re-reads its source per request: nil serves an empty
	// registry, and swapping the registry (grainscan's per-configuration
	// runtimes) is visible on the next request with no handler rebuild.
	var reg atomic.Pointer[counters.Registry]
	srv := httptest.NewServer(NewProviderHandler(reg.Load))
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+"/counters")
	if code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("nil registry: %d %q", code, body)
	}

	first := counters.NewRegistry()
	c := counters.NewCumulative("/threads/count/cumulative")
	first.MustRegister(c)
	c.Add(5)
	reg.Store(first)
	code, body = get(t, srv.URL+"/counter?name="+url.QueryEscape("/threads/count/cumulative"))
	if code != 200 || !strings.Contains(body, `"value": 5`) {
		t.Fatalf("first registry: %d %s", code, body)
	}

	second := counters.NewRegistry()
	c2 := counters.NewCumulative("/threads/count/cumulative")
	second.MustRegister(c2)
	c2.Add(11)
	reg.Store(second)
	code, body = get(t, srv.URL+"/counter?name="+url.QueryEscape("/threads/count/cumulative"))
	if code != 200 || !strings.Contains(body, `"value": 11`) {
		t.Fatalf("swapped registry: %d %s", code, body)
	}
}
