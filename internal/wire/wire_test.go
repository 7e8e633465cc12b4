package wire

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRetryAfterSecondsRoundsUp(t *testing.T) {
	for d, want := range map[time.Duration]int{
		0:                       1,
		time.Millisecond:        1,
		500 * time.Millisecond:  1,
		time.Second:             1,
		1500 * time.Millisecond: 2,
		1900 * time.Millisecond: 2,
		2 * time.Second:         2,
	} {
		if got := RetryAfterSeconds(d); got != want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", d, got, want)
		}
	}
}

func TestWaitTimeout(t *testing.T) {
	for _, tc := range []struct {
		query   string
		want    time.Duration
		wantErr bool
	}{
		{"", 0, false},
		{"wait=false", 0, false},
		{"wait=T", 0, false}, // only true|1 ask for a long-poll
		{"wait=T&timeout=bogus", 0, false},
		{"wait=true", waitTimeoutDefault, false},
		{"wait=1&timeout=2s", 2 * time.Second, false},
		{"wait=true&timeout=5m", waitTimeoutMax, false},
		{"wait=true&timeout=5m1s", 0, true}, // refused, never clamped
		{"wait=true&timeout=0", 0, true},
		{"wait=true&timeout=soon", 0, true},
	} {
		got, err := WaitTimeout(httptest.NewRequest(http.MethodGet, "/v1/jobs/j-1?"+tc.query, nil))
		if got != tc.want || (err != nil) != tc.wantErr {
			t.Errorf("WaitTimeout(%q) = %v, %v; want %v, error %v", tc.query, got, err, tc.want, tc.wantErr)
		}
	}
}

func TestDecodeIsStrict(t *testing.T) {
	post := func(body string) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	if spec, err := DecodeSpec(w, post(`{"kind":"fibonacci","size":10}`)); err != nil || spec.Kind != "fibonacci" || spec.Size != 10 {
		t.Fatalf("DecodeSpec = %+v, %v", spec, err)
	}
	if _, err := DecodeSpec(w, post(`{"kind":"fibonacci","sizes":10}`)); err == nil || !strings.Contains(err.Error(), `unknown field "sizes"`) {
		t.Fatalf("unknown spec field: %v", err)
	}
	if _, err := DecodeBatch(w, post(`{"jobs":[{"kind":"fibonacci","grian":1}]}`), 4); err == nil || !strings.Contains(err.Error(), `unknown field "grian"`) {
		t.Fatalf("unknown batch item field: %v", err)
	}
	if _, err := DecodeBatch(w, post(`{"jobs":[]}`), 4); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := DecodeBatch(w, post(`{"jobs":[{},{},{}]}`), 2); err == nil || !strings.Contains(err.Error(), "max_batch_jobs 2") {
		t.Fatalf("oversized batch: %v", err)
	}
}

// TestWriteItemAndBatch pins the two renderings of one item: the single
// response (status + view, or status + error body + Retry-After header) and
// the batch envelope whose overall status relays the first shed.
func TestWriteItemAndBatch(t *testing.T) {
	admitted := BatchItem{Status: http.StatusAccepted, Job: &JobView{ID: "j-1", State: JobQueued}}
	shed := BatchItem{Status: http.StatusTooManyRequests, Error: "job queue full", RetryAfter: 2}
	bad := BatchItem{Status: http.StatusBadRequest, Error: "size = 0"}

	w := httptest.NewRecorder()
	WriteItem(w, admitted)
	var view JobView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil || w.Code != 202 || view.ID != "j-1" || w.Header().Get("Retry-After") != "" {
		t.Fatalf("admitted item: %d %s (%v)", w.Code, w.Body, err)
	}
	w = httptest.NewRecorder()
	WriteItem(w, shed)
	var e Error
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || w.Code != 429 || e != (Error{"job queue full", 429}) || w.Header().Get("Retry-After") != "2" {
		t.Fatalf("shed item: %d %s (%v)", w.Code, w.Body, err)
	}

	for _, tc := range []struct {
		items      []BatchItem
		status     int
		retryAfter string
		admitted   int
		shed       int
	}{
		{[]BatchItem{bad, admitted, shed}, 202, "", 1, 1},
		{[]BatchItem{bad, shed}, 429, "2", 0, 1},
		{[]BatchItem{bad}, 400, "", 0, 0},
	} {
		w := httptest.NewRecorder()
		WriteBatch(w, tc.items)
		var reply BatchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
			t.Fatal(err)
		}
		if w.Code != tc.status || w.Header().Get("Retry-After") != tc.retryAfter ||
			reply.Admitted != tc.admitted || reply.Shed != tc.shed || len(reply.Results) != len(tc.items) {
			t.Errorf("WriteBatch(%+v) = %d Retry-After %q %+v", tc.items, w.Code, w.Header().Get("Retry-After"), reply)
		}
	}
}
