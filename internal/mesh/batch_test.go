package mesh

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// meshBatchReply mirrors the gateway's POST /v1/jobs/batch response.
type meshBatchReply struct {
	Admitted int `json:"admitted"`
	Shed     int `json:"shed"`
	Results  []struct {
		Status     int            `json:"status"`
		Job        map[string]any `json:"job"`
		Error      string         `json:"error"`
		RetryAfter int            `json:"retry_after_s"`
	} `json:"results"`
}

func postMeshBatch(t *testing.T, gw, body string) (*http.Response, meshBatchReply) {
	t.Helper()
	resp, err := http.Post(gw+"/v1/jobs/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out meshBatchReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad batch reply: %v", err)
	}
	return resp, out
}

func fibBatch(n int) string {
	items := make([]string, n)
	for i := range items {
		items[i] = `{"kind":"fibonacci","size":10}`
	}
	return `{"jobs":[` + strings.Join(items, ",") + `]}`
}

// waitRoutable blocks until the router ranks all n nodes for the kind.
func waitRoutable(t *testing.T, m *Mesh, kind string, n int) {
	t.Helper()
	waitFor(t, 5*time.Second, "nodes routable", func() bool {
		return len(m.router.rank(kind)) == n
	})
}

// TestMeshBatchSplitsAndSpillsPerItem: the first-ranked node admits part of
// the sub-batch and sheds the rest per item; the gateway must forward only
// the shed items to the second node — as ONE further sub-batch, with no
// inter-pass sleep (the second node is untried) — and stitch all five 202s
// back in request order.
func TestMeshBatchSplitsAndSpillsPerItem(t *testing.T) {
	shedder := newFakeNode(t)
	taker := newFakeNode(t)
	// least-inflight: shedder reports an empty queue so the whole batch
	// targets it first; taker reports backlog so it is strictly second.
	shedder.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 0, "/server/jobs/running": 0}
		f.batchFn = func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Jobs []map[string]any `json:"jobs"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			results := make([]map[string]any, len(req.Jobs))
			admitted := 0
			for i := range req.Jobs {
				if i < 2 {
					admitted++
					results[i] = map[string]any{"status": http.StatusAccepted, "job": map[string]any{
						"id": "shedder-" + string(rune('a'+i)), "state": "queued",
					}}
					continue
				}
				results[i] = map[string]any{
					"status": http.StatusTooManyRequests, "error": "queue full", "retry_after_s": 1,
				}
			}
			writeJSON(w, http.StatusAccepted, map[string]any{
				"admitted": admitted, "shed": len(req.Jobs) - admitted, "results": results,
			})
		}
	})
	taker.set(func(f *fakeNode) {
		f.counters = map[string]float64{"/server/jobs/queued": 3, "/server/jobs/running": 1}
	})

	cfg := testMeshConfig(shedder.ts.URL, taker.ts.URL)
	cfg.RoutePolicy = config.MeshPolicyLeastInflight
	m, gw := startMesh(t, cfg)
	waitRoutable(t, m, "fibonacci", 2)

	start := time.Now()
	resp, out := postMeshBatch(t, gw.URL, fibBatch(5))
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch through spillover: %d %+v", resp.StatusCode, out)
	}
	if out.Admitted != 5 || out.Shed != 0 {
		t.Fatalf("admitted/shed = %d/%d, want 5/0 (shed items re-placed on the taker)", out.Admitted, out.Shed)
	}
	for i, r := range out.Results {
		if r.Status != http.StatusAccepted || r.Job == nil || r.Job["id"] == "" {
			t.Fatalf("item %d = %+v, want 202 with a job view", i, r)
		}
		mesh, _ := r.Job["mesh"].(map[string]any)
		if mesh == nil {
			t.Fatalf("item %d view missing mesh augment: %+v", i, r.Job)
		}
		wantNode := taker.name()
		if i < 2 {
			wantNode = shedder.name()
		}
		if mesh["node"] != wantNode {
			t.Fatalf("item %d placed on %v, want %s", i, mesh["node"], wantNode)
		}
	}
	// Intra-pass spillover must not sleep out the shedder's Retry-After hint.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("per-item spillover slept %v", elapsed)
	}
	if shedder.batches.Load() != 1 || taker.batches.Load() != 1 {
		t.Fatalf("sub-batches: shedder %d taker %d, want 1 and 1 (vectored, not per-job)",
			shedder.batches.Load(), taker.batches.Load())
	}
	if got := shedder.submits.Load() + taker.submits.Load(); got != 0 {
		t.Fatalf("%d single-job submits leaked out of the batch path", got)
	}

	snap := m.Counters().Snapshot()
	if snap["/mesh/batch/forwarded"] != 2 {
		t.Fatalf("/mesh/batch/forwarded = %v, want 2", snap["/mesh/batch/forwarded"])
	}
	if snap["/mesh/batch/split-factor"] != 1 {
		t.Fatalf("/mesh/batch/split-factor = %v, want 1 (first pass had one target)", snap["/mesh/batch/split-factor"])
	}
	if snap["/mesh/jobs/submitted"] != 5 || snap["/mesh/jobs/rejected"] != 0 {
		t.Fatalf("mesh totals wrong: %v", snap)
	}
	if snap[nodeCounter(shedder.name(), "spills")] != 3 {
		t.Fatalf("shedder spills = %v, want 3", snap[nodeCounter(shedder.name(), "spills")])
	}
}

// TestMeshSubmitUnwindsOnClientCancel is the hung-client bugfix test: a
// canceled request context must unwind placement during the inter-pass
// backoff instead of sleeping out the full Retry-After × MaxSubmitAttempts
// budget — and the node must NOT be blamed (no unreachable marking, job gone
// from the gateway store).
func TestMeshSubmitUnwindsOnClientCancel(t *testing.T) {
	n := newFakeNode(t)
	n.set(func(f *fakeNode) {
		f.submitFn = func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "shed"})
		}
	})
	cfg := testMeshConfig(n.ts.URL)
	// Uncancelled, this submit would sleep out ~7 jittered 0.5–1s backoffs.
	cfg.MaxSubmitAttempts = 8
	cfg.MaxBackoff = 5 * time.Second
	m, _ := startMesh(t, cfg)
	waitRoutable(t, m, "fibonacci", 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := m.admit(ctx, []wire.JobSpec{{Kind: "fibonacci", Size: 10}}, trace.SpanContext{}, false)[0]
	elapsed := time.Since(start)

	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("canceled submit status = %d, want 503 (last refusal relayed)", res.Status)
	}
	if res.RetryAfter <= 0 {
		t.Fatal("canceled submit lost its Retry-After hint")
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("canceled submit unwound in %v — it served out the backoff instead of aborting", elapsed)
	}
	if jobs := m.jobs.list(); len(jobs) != 0 {
		t.Fatalf("canceled submit retained %d gateway jobs", len(jobs))
	}
	// The cancellation was the client's doing: the node stays routable.
	if got := len(m.router.rank("fibonacci")); got != 1 {
		t.Fatalf("node unroutable after client cancel: rank = %d nodes", got)
	}
}

// TestMeshBatchUnwindsOnClientCancel: same prompt-unwind contract on the
// batch path — every still-pending item sheds with 503 + retry_after_s the
// moment the client hangs up, well before the backoff budget expires.
func TestMeshBatchUnwindsOnClientCancel(t *testing.T) {
	n := newFakeNode(t)
	n.set(func(f *fakeNode) {
		f.batchFn = func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Jobs []map[string]any `json:"jobs"`
			}
			_ = json.NewDecoder(r.Body).Decode(&req)
			results := make([]map[string]any, len(req.Jobs))
			for i := range results {
				results[i] = map[string]any{
					"status": http.StatusTooManyRequests, "error": "shed", "retry_after_s": 1,
				}
			}
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"admitted": 0, "shed": len(req.Jobs), "results": results,
			})
		}
	})
	cfg := testMeshConfig(n.ts.URL)
	cfg.MaxSubmitAttempts = 8
	cfg.MaxBackoff = 5 * time.Second
	m, _ := startMesh(t, cfg)
	waitRoutable(t, m, "fibonacci", 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	spec := wire.JobSpec{Kind: "fibonacci", Size: 10}
	results := m.admit(ctx, []wire.JobSpec{spec, spec, spec}, trace.SpanContext{}, true)
	elapsed := time.Since(start)

	if elapsed > 1500*time.Millisecond {
		t.Fatalf("canceled batch unwound in %v — it served out the backoff instead of aborting", elapsed)
	}
	if len(results) != 3 {
		t.Fatalf("canceled batch reply = %+v, want 3 shed items", results)
	}
	for i, r := range results {
		if r.Status != http.StatusServiceUnavailable {
			t.Fatalf("item %d status = %v, want 503", i, r.Status)
		}
		if r.RetryAfter < 1 {
			t.Fatalf("item %d missing retry_after_s: %+v", i, r)
		}
	}
	if jobs := m.jobs.list(); len(jobs) != 0 {
		t.Fatalf("canceled batch retained %d gateway jobs", len(jobs))
	}
}
