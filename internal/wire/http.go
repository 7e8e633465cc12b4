package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Body bounds: a spec is a handful of scalars, so anything bigger is a
// client bug or abuse; max_batch_jobs specs of a few hundred bytes each fit
// comfortably in 1 MiB.
const (
	maxSpecBytes  = 1 << 16
	maxBatchBytes = 1 << 20
)

// waitTimeoutDefault and waitTimeoutMax bound GET ?wait=true long-polls.
const (
	waitTimeoutDefault = 30 * time.Second
	waitTimeoutMax     = 5 * time.Minute
)

// DecodeSpec reads the body of POST /v1/jobs. Unknown fields are an error at
// whichever tier sees the request first, so a typo never survives a typed
// round-trip as a silently dropped field.
func DecodeSpec(w http.ResponseWriter, r *http.Request) (JobSpec, error) {
	var spec JobSpec
	if err := decodeStrict(w, r, maxSpecBytes, &spec); err != nil {
		return spec, fmt.Errorf("bad job spec: %v", err)
	}
	return spec, nil
}

func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// DecodeBatch reads the body of POST /v1/jobs/batch, as strictly as
// DecodeSpec, and bounds the batch by the tier's max_batch_jobs.
func DecodeBatch(w http.ResponseWriter, r *http.Request, maxJobs int) ([]JobSpec, error) {
	var req BatchRequest
	if err := decodeStrict(w, r, maxBatchBytes, &req); err != nil {
		return nil, fmt.Errorf("bad batch: %v", err)
	}
	if len(req.Jobs) == 0 {
		return nil, errors.New(`empty batch (want {"jobs":[spec,...]})`)
	}
	if len(req.Jobs) > maxJobs {
		return nil, fmt.Errorf("batch of %d exceeds max_batch_jobs %d", len(req.Jobs), maxJobs)
	}
	return req.Jobs, nil
}

// WriteJSON writes v as the JSON reply with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // network write errors are the client's problem
}

// WriteError writes the error body for a non-2xx status.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, Error{Error: msg, Status: status})
}

// WriteItem answers a single-job request with the one item of a one-item
// admit: 202 and the view, or the refusal's status and reason with its
// Retry-After header.
func WriteItem(w http.ResponseWriter, it BatchItem) {
	if it.Job != nil {
		WriteJSON(w, it.Status, it.Job)
		return
	}
	if it.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(it.RetryAfter))
	}
	WriteError(w, it.Status, it.Error)
}

// WriteBatch answers a batch request with its per-item results. The overall
// status is 202 when at least one item was admitted; otherwise the first
// shed's status with its Retry-After relayed, so a batch-oblivious client's
// backoff logic still works (400 when every item was a spec rejection).
func WriteBatch(w http.ResponseWriter, items []BatchItem) {
	resp := BatchResponse{Results: items}
	var firstShed *BatchItem
	for i := range items {
		switch {
		case items[i].Job != nil:
			resp.Admitted++
		case items[i].Shed():
			resp.Shed++
			if firstShed == nil {
				firstShed = &items[i]
			}
		}
	}
	status := http.StatusAccepted
	if resp.Admitted == 0 {
		status = http.StatusBadRequest
		if firstShed != nil {
			status = firstShed.Status
			w.Header().Set("Retry-After", strconv.Itoa(firstShed.RetryAfter))
		}
	}
	WriteJSON(w, status, resp)
}

// WaitTimeout parses the long-poll parameters of GET /v1/jobs/{id}: 0 for a
// plain poll, otherwise the bound from ?wait=true|1[&timeout=<Go duration>].
// A gateway relays the raw query to the node, so both must read it the same
// way — this is the only parser.
func WaitTimeout(r *http.Request) (time.Duration, error) {
	q := r.URL.Query()
	if wait := q.Get("wait"); wait != "true" && wait != "1" {
		return 0, nil
	}
	v := q.Get("timeout")
	if v == "" {
		return waitTimeoutDefault, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, errors.New("bad timeout " + strconv.Quote(v) + " (want a Go duration, e.g. 30s)")
	}
	if d <= 0 || d > waitTimeoutMax {
		return 0, fmt.Errorf("timeout %v out of (0,%v]", d, waitTimeoutMax)
	}
	return d, nil
}

// RetryAfterSeconds renders a duration as the integral seconds Retry-After
// requires, rounding sub-second hints up so clients actually back off.
func RetryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
