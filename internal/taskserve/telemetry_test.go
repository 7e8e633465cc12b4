package taskserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
)

func TestMetricsEndpointServesOpenMetrics(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n, err := telemetry.ValidateOpenMetrics(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, raw)
	}
	if n == 0 {
		t.Fatal("no samples exposed")
	}
	text := string(raw)
	// The paper's counters come out under stable Prometheus names with the
	// node label applied.
	for _, want := range []string{
		"taskgrain_threads_idle_rate{node=",
		"taskgrain_threads_time_average_overhead{node=",
		"taskgrain_server_jobs_queued{node=",
		"# TYPE taskgrain_threads_count_cumulative counter",
		"taskgrain_telemetry_watchdog_active{node=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
}

// TestNodeLoopCounters: every background loop of a journaled node counts
// its runs and busy time on the runtime registry, and /metrics exports them
// with the loop name as the instance label.
func TestNodeLoopCounters(t *testing.T) {
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	s, ts := newTestServer(t, cfg)
	reg := s.Runtime().Counters()
	for _, name := range []string{"telemetry-sample", "journal-flush", "ttl-sweep"} {
		for _, leaf := range []string{"count/runs", "time/busy"} {
			if _, ok := reg.Get("/loops{" + name + "}/" + leaf); !ok {
				t.Fatalf("/loops{%s}/%s not registered", name, leaf)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		samples, _ := reg.Value("/loops{telemetry-sample}/count/runs")
		flushes, _ := reg.Value("/loops{journal-flush}/count/runs")
		if samples >= 2 && flushes >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loops not counting: %v samples, %v flushes", samples, flushes)
		}
		<-time.After(5 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), `taskgrain_loops_count_runs_total{instance="journal-flush"`) {
		t.Fatalf("journal-flush runs missing from /metrics:\n%s", raw)
	}
}

func TestTelemetryAlertsAndSeriesEndpoints(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	s.Telemetry().SampleNow()

	resp, err := http.Get(ts.URL + "/telemetry/alerts")
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
	if len(alerts.Alerts) != 1 || alerts.Alerts[0].Active {
		t.Fatalf("fresh server alerts = %+v", alerts.Alerts)
	}

	resp, err = http.Get(ts.URL + "/telemetry/series?name=/server/idle-rate&n=5&window=10s")
	if err != nil {
		t.Fatal(err)
	}
	var series struct {
		Name   string            `json:"name"`
		Points []telemetry.Point `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if series.Name != "/server/idle-rate" || len(series.Points) == 0 {
		t.Fatalf("series = %+v", series)
	}

	for _, bad := range []string{
		"/telemetry/series",                       // missing name
		"/telemetry/series?name=/x&n=0",           // bad n
		"/telemetry/series?name=/x&window=potato", // bad window
	} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestTraceHeaderPropagatesIntoJob(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	sc := trace.NewSpanContext()
	body, _ := json.Marshal(JobSpec{Kind: KindStencil, Size: 4000, Steps: 2, Grain: 500})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, sc.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if v.TraceContext != sc.String() {
		t.Fatalf("trace_context = %q, want %q", v.TraceContext, sc.String())
	}
	// The context survives into later status reads.
	if got := getJob(t, ts.URL, v.ID, "?wait=true&timeout=30s"); got.TraceContext != sc.String() {
		t.Fatalf("status trace_context = %q", got.TraceContext)
	}
	if n, _ := s.rt.Counters().Value("/server/trace/propagated"); n != 1 {
		t.Fatalf("/server/trace/propagated = %v", n)
	}

	// A malformed header leaves the job untraced instead of failing it.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set(trace.Header, "not-a-trace")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	v = JobView{}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || v.TraceContext != "" {
		t.Fatalf("malformed header: status %d trace %q", resp.StatusCode, v.TraceContext)
	}

	// A malformed body-carried context is a spec error.
	bad, _ := json.Marshal(JobSpec{Kind: KindStencil, Size: 4000, Grain: 500, TraceContext: "zzz"})
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(bad))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body trace accepted: %d", resp.StatusCode)
	}
}

func TestWatchdogEvaluatesFromSamplerHook(t *testing.T) {
	cfg := testConfig()
	cfg.TelemetryInterval = 5 * time.Millisecond
	s, _ := newTestServer(t, cfg)
	// The hook runs on every tick; the fresh server must settle un-alerted
	// with real samples accumulating in the ring, each engine sample one of
	// the watchdog's readings.
	deadline := time.Now().Add(2 * time.Second)
	for s.Telemetry().Ring().Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("sampler never ticked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a := s.Watchdog().Current()
	if a.Active {
		t.Fatalf("idle server alerted: %+v", a)
	}
	if a.Samples == 0 {
		t.Fatalf("the watchdog judged no engine sample: %+v", a)
	}
}
