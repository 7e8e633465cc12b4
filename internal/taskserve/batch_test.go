package taskserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// batchReply mirrors the POST /v1/jobs/batch response body.
type batchReply struct {
	Admitted int `json:"admitted"`
	Shed     int `json:"shed"`
	Results  []struct {
		Status     int      `json:"status"`
		Job        *JobView `json:"job"`
		Error      string   `json:"error"`
		RetryAfter int      `json:"retry_after_s"`
	} `json:"results"`
}

func postBatch(t *testing.T, base, body string) (*http.Response, batchReply) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs/batch", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("bad batch reply: %v", err)
	}
	return resp, out
}

// fibBatchBody renders {"jobs":[...]} of n fibonacci specs; keyPrefix != ""
// stamps per-item idempotency keys keyPrefix-0..n-1.
func fibBatchBody(n int, keyPrefix string) string {
	items := make([]string, n)
	for i := range items {
		if keyPrefix != "" {
			items[i] = fmt.Sprintf(`{"kind":"fibonacci","size":10,"idempotency_key":"%s-%d"}`, keyPrefix, i)
		} else {
			items[i] = `{"kind":"fibonacci","size":10}`
		}
	}
	return `{"jobs":[` + strings.Join(items, ",") + `]}`
}

// TestBatchSubmitHTTPPerItemResults covers the batch endpoint's per-item
// contract: valid items admit (and later replay by idempotency key), an
// invalid item gets its own 400 without failing the rest, and the batch
// counters account one batch with three jobs.
func TestBatchSubmitHTTPPerItemResults(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatchJobs = 8
	s, ts := newTestServer(t, cfg)

	body := `{"jobs":[` +
		`{"kind":"fibonacci","size":10,"idempotency_key":"bk-0"},` +
		`{"kind":"fibonacci","size":12,"idempotency_key":"bk-1"},` +
		`{"kind":"does-not-exist","size":10},` +
		`{"kind":"stencil1d","size":20000,"steps":2,"grain":1000,"idempotency_key":"bk-3"}]}`
	resp, out := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch with one bad item: status %d, want 202", resp.StatusCode)
	}
	if out.Admitted != 3 || out.Shed != 0 || len(out.Results) != 4 {
		t.Fatalf("admitted/shed/results = %d/%d/%d, want 3/0/4", out.Admitted, out.Shed, len(out.Results))
	}
	ids := map[int]string{}
	for i, r := range out.Results {
		if i == 2 {
			if r.Status != http.StatusBadRequest || r.Error == "" || r.Job != nil {
				t.Fatalf("invalid item result = %+v, want per-item 400 with error", r)
			}
			continue
		}
		if r.Status != http.StatusAccepted || r.Job == nil || r.Job.ID == "" {
			t.Fatalf("item %d result = %+v, want 202 with job view", i, r)
		}
		ids[i] = r.Job.ID
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st != JobDone {
			t.Fatalf("batch job %s = %s, want done", id, st)
		}
	}

	// Re-posting the same batch replays the retained jobs by idempotency key:
	// same IDs, no second runs, and no new batch-path admissions counted.
	resp, again := postBatch(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted || again.Admitted != 3 {
		t.Fatalf("replay batch: status %d admitted %d, want 202/3", resp.StatusCode, again.Admitted)
	}
	for i, id := range ids {
		if got := again.Results[i].Job.ID; got != id {
			t.Fatalf("replay item %d returned %s, want retained %s", i, got, id)
		}
	}
	if got := s.batchSubmitted.Raw(); got != 1 {
		t.Fatalf("/server/batch/submitted = %d, want 1 (replays admit nothing new)", got)
	}
	if got := s.batchJobs.Raw(); got != 3 {
		t.Fatalf("/server/batch/jobs = %d, want 3", got)
	}
	if got := s.batchSheds.Raw(); got != 0 {
		t.Fatalf("/server/batch/partial-sheds = %d, want 0", got)
	}

	// Protocol-level rejections: an empty batch and one over max_batch_jobs.
	if resp, _ := postBatch(t, ts.URL, `{"jobs":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts.URL, fibBatchBody(9, "")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d, want 400", resp.StatusCode)
	}
}

// TestBatchPartialAdmissionPrefixAndPerItem429 is the tentpole's partial
// admission contract over HTTP: a batch straddling the queue's remaining
// capacity admits exactly the prefix that fits and sheds the suffix with
// per-item 429 + retry_after_s, 202 overall. A follow-up batch against the
// still-full queue sheds entirely with 429 + Retry-After at the top level.
func TestBatchPartialAdmissionPrefixAndPerItem429(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrentJobs = 1
	cfg.MaxQueuedJobs = 4
	s, ts := newTestServer(t, cfg)

	// A long job owns the only runner, so the queue's 4 slots are the exact
	// remaining capacity once it is running.
	resp, blocker := postJob(t, ts.URL, JobSpec{Kind: KindStencil, Size: 2_000_000, Steps: 20, Grain: 2000})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: status %d", resp.StatusCode)
	}
	waitState(t, s, blocker.ID, JobRunning)

	resp, out := postBatch(t, ts.URL, fibBatchBody(10, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("straddling batch: status %d, want 202 (partial admission)", resp.StatusCode)
	}
	if out.Admitted != 4 || out.Shed != 6 {
		t.Fatalf("admitted/shed = %d/%d, want exactly the 4-slot prefix and 6 sheds", out.Admitted, out.Shed)
	}
	for i, r := range out.Results {
		if i < 4 {
			if r.Status != http.StatusAccepted || r.Job == nil {
				t.Fatalf("prefix item %d = %+v, want 202", i, r)
			}
			continue
		}
		if r.Status != http.StatusTooManyRequests || r.RetryAfter < 1 || !strings.Contains(r.Error, "queue full") {
			t.Fatalf("suffix item %d = %+v, want 429 + retry_after_s", i, r)
		}
	}
	if got := s.batchSubmitted.Raw(); got != 1 {
		t.Fatalf("/server/batch/submitted = %d, want 1", got)
	}
	if got := s.batchJobs.Raw(); got != 4 {
		t.Fatalf("/server/batch/jobs = %d, want 4", got)
	}
	if got := s.batchSheds.Raw(); got != 1 {
		t.Fatalf("/server/batch/partial-sheds = %d, want 1", got)
	}

	// Queue still full: an all-shed batch relays the shed status + Retry-After
	// at the top level so batch-oblivious backoff logic keeps working.
	resp, out = postBatch(t, ts.URL, fibBatchBody(2, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("full-queue batch shed without a Retry-After header")
	}
	if out.Admitted != 0 || out.Shed != 2 {
		t.Fatalf("full-queue batch admitted/shed = %d/%d, want 0/2", out.Admitted, out.Shed)
	}
	if got := s.batchSheds.Raw(); got != 1 {
		t.Fatalf("/server/batch/partial-sheds moved to %d on an all-shed batch, want 1", got)
	}
}

// waitState polls a job into the wanted state.
func waitState(t *testing.T, s *Server, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := s.Job(id); ok && j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

// TestBatchCrashRestartReplaysExactlyAdmittedPrefix: every batch candidate is
// journaled in one group commit before the enqueue, and the shed suffix is
// rescinded with drop records — so a crash-restart recovers EXACTLY the
// admitted prefix, never a shed item the client was told to retry.
func TestBatchCrashRestartReplaysExactlyAdmittedPrefix(t *testing.T) {
	cfg := journalConfig(t)
	cfg.MaxConcurrentJobs = 1
	cfg.MaxQueuedJobs = 4
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()

	blocker, se := a.Submit(JobSpec{Kind: KindStencil, Size: 2_000_000, Steps: 20, Grain: 2000})
	if se != nil {
		t.Fatalf("blocker shed: %v", se.reason)
	}
	waitState(t, a, blocker.ID(), JobRunning)

	specs := make([]JobSpec, 7)
	for i := range specs {
		specs[i] = JobSpec{Kind: KindFibonacci, Size: 10, IdempotencyKey: fmt.Sprintf("pfx-%d", i)}
	}
	res := a.SubmitBatch(specs)
	var admitted []string
	for i, r := range res {
		if i < 4 {
			if r.job == nil {
				t.Fatalf("prefix item %d shed: %+v", i, r.shed)
			}
			admitted = append(admitted, r.job.ID())
			continue
		}
		if r.shed == nil || r.shed.status != http.StatusTooManyRequests || r.shed.retryAfter <= 0 {
			t.Fatalf("suffix item %d = %+v, want 429 shed", i, r)
		}
	}
	// All 7 candidates went through the single vectored append — durability
	// was bound before the queue cut decided who stays — and the 3 shed ones
	// were rescinded through one more.
	if got := a.wal.AppendsBatched(); got != 7+3 {
		t.Fatalf("AppendsBatched = %d, want 7 admits + 3 drops", got)
	}
	a.Crash()

	// Restart with queue headroom for the 5 recovered jobs (blocker + prefix);
	// the journal dir is what carries the state across.
	cfgB := cfg
	cfgB.MaxQueuedJobs = 8
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	want := map[string]bool{blocker.ID(): true}
	for _, id := range admitted {
		want[id] = true
	}
	got := b.Jobs()
	if len(got) != len(want) {
		t.Fatalf("recovered %d jobs, want exactly the admitted prefix + blocker (%d)", len(got), len(want))
	}
	for _, j := range got {
		if !want[j.ID()] {
			t.Fatalf("recovered job %s is not in the admitted prefix — a shed item was resurrected", j.ID())
		}
	}
	// Idempotency keys recovered with the prefix: resubmitting replays.
	rj, se := b.Submit(JobSpec{Kind: KindFibonacci, Size: 10, IdempotencyKey: "pfx-0"})
	if se != nil {
		t.Fatalf("replay submit shed: %v", se.reason)
	}
	if rj.ID() != admitted[0] {
		t.Fatalf("idempotency replay returned %s, want recovered %s", rj.ID(), admitted[0])
	}

	b.Start()
	for _, id := range append([]string{blocker.ID()}, admitted...) {
		if st := waitTerminal(t, b, id); !st.Terminal() {
			t.Fatalf("recovered job %s ended non-terminal: %s", id, st)
		}
	}
}
