package taskserve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"taskgrain/internal/journal"
	"taskgrain/internal/wire"
)

// admitOutcome is everything a submission is allowed to change, as seen from
// outside the admit core.
type admitOutcome struct {
	HTTPStatus int
	RetryAfter string // the reply's Retry-After header
	Item       wire.BatchItem
	JobState   JobState // state of the job the reply names ("" when refused)
	StoreJobs  int
	Deltas     map[string]float64 // /server/jobs/{submitted,shed}
	Journal    []string           // record kinds appended by the request
}

// TestSingleIsBatchOfOne drives every admit scenario through POST /v1/jobs
// and through a one-item POST /v1/jobs/batch on identically prepared servers
// and requires the same outcome: response, job state, /server/jobs/* deltas
// and journal record sequence. The servers are never started, so admitted
// jobs stay queued and only the request itself writes the journal.
func TestSingleIsBatchOfOne(t *testing.T) {
	const spec = `{"kind":"fibonacci","size":10,"idempotency_key":"eq-key"}`
	presubmit := func(t *testing.T, s *Server) {
		if _, se := s.Submit(JobSpec{Kind: KindFibonacci, Size: 10, IdempotencyKey: "eq-key"}); se != nil {
			t.Fatalf("setup submit shed: %v", se.reason)
		}
	}
	drain := func(t *testing.T, s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := s.Drain(ctx); err != nil {
			t.Fatalf("setup drain: %v", err)
		}
	}

	scenarios := []struct {
		name string
		// setup prepares the server before the request under test.
		setup func(t *testing.T, s *Server)
		// during, when set, runs while the request is parked on queueMu after
		// its admit record reached the journal.
		during      func(s *Server)
		wantStatus  int
		wantJournal []string
	}{
		{name: "fresh admit", wantStatus: 202, wantJournal: []string{walAdmit}},
		{name: "idempotent replay", setup: presubmit, wantStatus: 202},
		{
			name:       "replay while draining",
			setup:      func(t *testing.T, s *Server) { presubmit(t, s); drain(t, s) },
			wantStatus: 202,
		},
		{name: "draining shed", setup: drain, wantStatus: 503},
		{
			name: "queue-full 429",
			setup: func(t *testing.T, s *Server) {
				for len(s.queue) < cap(s.queue) {
					if _, se := s.Submit(JobSpec{Kind: KindFibonacci, Size: 10}); se != nil {
						t.Fatalf("filler shed: %v", se.reason)
					}
				}
				// Blind the admission check so the exact non-blocking send is
				// what refuses — the journaled-then-rescinded path.
				s.adm.queuedJobs = func() int { return 0 }
			},
			wantStatus:  429,
			wantJournal: []string{walAdmit, walDrop},
		},
		{
			name:       "journal-append failure 503",
			setup:      func(t *testing.T, s *Server) { s.wal.Kill() },
			wantStatus: 503,
		},
		{
			name:        "drain race after journaling",
			during:      func(s *Server) { s.draining.Store(true) },
			wantStatus:  503,
			wantJournal: []string{walAdmit, walDrop},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func(path, body string) admitOutcome {
				cfg := journalConfig(t)
				cfg.MaxQueuedJobs = 2
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if sc.setup != nil {
					sc.setup(t, s)
				}
				from := s.wal.LastLSN()
				prev := s.rt.Counters().Snapshot()

				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
				if sc.during == nil {
					s.Handler().ServeHTTP(rec, req)
				} else {
					s.queueMu.Lock()
					served := make(chan struct{})
					go func() {
						defer close(served)
						s.Handler().ServeHTTP(rec, req)
					}()
					for s.wal.LastLSN() == from { // the admit record is journaled before queueMu
						time.Sleep(time.Millisecond)
					}
					sc.during(s)
					s.queueMu.Unlock()
					<-served
				}

				out := admitOutcome{
					HTTPStatus: rec.Code,
					RetryAfter: rec.Header().Get("Retry-After"),
					StoreJobs:  len(s.Jobs()),
					Deltas:     map[string]float64{},
				}
				if path == "/v1/jobs" {
					out.Item = wire.BatchItem{Status: rec.Code}
					var view JobView // an error body decodes too: ID empty, Error set
					if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
						t.Fatalf("%s reply: %v", path, err)
					}
					if out.Item.Error = view.Error; rec.Code == http.StatusAccepted {
						out.Item.Job = &view
					}
					out.Item.RetryAfter, _ = strconv.Atoi(out.RetryAfter)
				} else {
					var reply wire.BatchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || len(reply.Results) != 1 {
						t.Fatalf("%s reply %q: %v", path, rec.Body.Bytes(), err)
					}
					out.Item = reply.Results[0]
				}
				if view := out.Item.Job; view != nil {
					job, ok := s.Job(view.ID)
					if !ok {
						t.Fatalf("%s acknowledged %s but the store does not hold it", path, view.ID)
					}
					out.JobState = job.State()
					view.SubmittedAt, view.DeadlineAt = time.Time{}, nil // wall-clock stamps differ run to run
				}
				cur := s.rt.Counters().Snapshot()
				for _, name := range []string{"/server/jobs/submitted", "/server/jobs/shed"} {
					out.Deltas[name] = cur[name] - prev[name]
				}
				batchDelta := cur["/server/batch/submitted"] - prev["/server/batch/submitted"]
				if want := out.Deltas["/server/jobs/submitted"]; path == "/v1/jobs" && batchDelta != 0 || path != "/v1/jobs" && batchDelta != want {
					t.Errorf("%s moved /server/batch/submitted by %v (jobs submitted %v): it counts batch-endpoint admits only", path, batchDelta, want)
				}

				// Freeze the journal and read back what the request appended. A
				// drained server's journal is already closed; the drain-race
				// scenario only raised the flag.
				if !s.draining.Load() || sc.during != nil {
					s.wal.Kill()
				}
				recv, err := journal.Recover(cfg.JournalDir)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recv.Records {
					var w walRecord
					if err := json.Unmarshal(r.Payload, &w); err != nil {
						t.Fatal(err)
					}
					if r.LSN > from {
						out.Journal = append(out.Journal, w.T)
					}
				}
				return out
			}

			single := run("/v1/jobs", spec)
			batch := run("/v1/jobs/batch", `{"jobs":[`+spec+`]}`)
			if !reflect.DeepEqual(single, batch) {
				t.Fatalf("single and one-item batch diverge:\n single %+v\n batch  %+v", single, batch)
			}
			if single.HTTPStatus != sc.wantStatus {
				t.Fatalf("status %d, want %d (%+v)", single.HTTPStatus, sc.wantStatus, single)
			}
			if !reflect.DeepEqual(single.Journal, sc.wantJournal) {
				t.Fatalf("journal sequence %v, want %v", single.Journal, sc.wantJournal)
			}
			if (sc.wantStatus == 202) != (single.JobState == JobQueued) {
				t.Fatalf("status %d with job state %q", sc.wantStatus, single.JobState)
			}
		})
	}
}
