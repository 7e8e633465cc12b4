package taskserve

// Tests for the node-side mesh support surface: the drain-state healthz
// body, the /server load counters a mesh registry heartbeats, and
// idempotency-keyed submission replay.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"
)

func getHealth(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var v struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("healthz body not JSON: %v", err)
	}
	return v.Status
}

func TestHealthzReportsDrainState(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	if got := getHealth(t, ts.URL); got != "ok" {
		t.Fatalf("healthz status %q, want ok", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := getHealth(t, ts.URL); got != "draining" {
		t.Fatalf("healthz status after Drain %q, want draining", got)
	}
}

func TestMeshLoadCountersExposed(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/debug/counters?prefix=/server")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/server/idle-rate", "/server/jobs/running", "/server/draining", "/server/jobs/queued"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("/debug/counters missing %s", name)
		}
	}
	if snap["/server/draining"] != 0 {
		t.Fatalf("/server/draining = %v before drain", snap["/server/draining"])
	}
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.rt.Counters().Value("/server/draining"); v != 1 {
		t.Fatalf("/server/draining = %v after drain, want 1", v)
	}
}

func TestIdempotentSubmitReplays(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	spec := JobSpec{Kind: KindFibonacci, Size: 20, Grain: 10, IdempotencyKey: "mesh-abc-1"}
	first, shed := s.Submit(spec)
	if shed != nil {
		t.Fatal(shed)
	}
	again, shed := s.Submit(spec)
	if shed != nil {
		t.Fatal(shed)
	}
	if again.ID() != first.ID() {
		t.Fatalf("idempotent replay created a new job: %s vs %s", again.ID(), first.ID())
	}
	<-first.Done()
	// Replay after completion still returns the same terminal job.
	done, shed := s.Submit(spec)
	if shed != nil {
		t.Fatal(shed)
	}
	if done.ID() != first.ID() || done.State() != JobDone {
		t.Fatalf("post-completion replay: id=%s state=%s", done.ID(), done.State())
	}
	if got := s.submitted.Raw(); got != 1 {
		t.Fatalf("submitted counter %d after replays, want 1", got)
	}
	// A different key is a different job.
	other, shed := s.Submit(JobSpec{Kind: KindFibonacci, Size: 20, Grain: 10, IdempotencyKey: "mesh-abc-2"})
	if shed != nil {
		t.Fatal(shed)
	}
	if other.ID() == first.ID() {
		t.Fatal("distinct keys shared a job")
	}
}

func TestIdempotentSubmitConcurrentRace(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	const clients = 16
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, shed := s.Submit(JobSpec{Kind: KindFibonacci, Size: 18, Grain: 10, IdempotencyKey: "race-key"})
			if shed == nil {
				ids[i] = j.ID()
			}
		}()
	}
	wg.Wait()
	want := ""
	for _, id := range ids {
		if id == "" {
			continue
		}
		if want == "" {
			want = id
		}
		if id != want {
			t.Fatalf("concurrent idempotent submits produced distinct jobs: %v", ids)
		}
	}
	if want == "" {
		t.Fatal("every concurrent submit was shed")
	}
	if got := s.submitted.Raw(); got != 1 {
		t.Fatalf("submitted counter %d, want 1", got)
	}
}

func TestIdempotentReplayDuringDrain(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	spec := JobSpec{Kind: KindFibonacci, Size: 20, Grain: 10, IdempotencyKey: "drain-key"}
	first, shed := s.Submit(spec)
	if shed != nil {
		t.Fatal(shed)
	}
	<-first.Done()
	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The node refuses new work while draining, but a replay of admitted
	// work still answers — failover resubmission must not double-run.
	j, shed := s.Submit(spec)
	if shed != nil {
		t.Fatalf("idempotent replay shed during drain: %v", shed)
	}
	if j.ID() != first.ID() {
		t.Fatalf("replay during drain created job %s, want %s", j.ID(), first.ID())
	}
	if _, shed := s.Submit(JobSpec{Kind: KindFibonacci, Size: 20, Grain: 10, IdempotencyKey: "fresh-key"}); shed == nil {
		t.Fatal("fresh submission admitted while draining")
	}
}

func TestValidateIdempotencyKeyBound(t *testing.T) {
	long := make([]byte, maxIdempotencyKey+1)
	for i := range long {
		long[i] = 'k'
	}
	spec := JobSpec{Kind: KindFibonacci, Size: 10, IdempotencyKey: string(long)}
	if err := validateSpec(&spec, 1<<20); err == nil {
		t.Fatal("oversized idempotency key accepted")
	}
}
