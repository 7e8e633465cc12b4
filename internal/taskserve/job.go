package taskserve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/wire"
)

// The job vocabulary is the wire schema's; the aliases keep it under this
// package's names for the code that runs the jobs.
type (
	JobState  = wire.JobState
	JobResult = wire.JobResult
	JobView   = wire.JobView
)

// Job lifecycle states.
const (
	JobQueued    = wire.JobQueued
	JobRunning   = wire.JobRunning
	JobDone      = wire.JobDone
	JobFailed    = wire.JobFailed
	JobCancelled = wire.JobCancelled
)

// Job is one admitted submission.
type Job struct {
	id   string
	spec JobSpec

	mu          sync.Mutex
	state       JobState
	grain       int
	grainSource string // "request" or "adaptive"
	decision    string // adaptive decision recorded after the run, if any
	errMsg      string
	result      *JobResult
	submitted   time.Time
	started     time.Time
	finished    time.Time
	deadline    time.Time // zero = none

	// cancel carries the first abort request ("cancelled by client",
	// "deadline exceeded"); task bodies poll cancelRequested.
	cancelRequested chan struct{}
	cancelOnce      sync.Once
	cancelReason    string
	cancelToState   JobState

	done chan struct{} // closed on any terminal transition

	// terminalLogged guards the once-per-job terminal accounting (outcome
	// counter + journal record) against the runner/cancel race.
	terminalLogged atomic.Bool
}

func newJob(id string, spec JobSpec, deadline time.Time) *Job {
	return &Job{
		id:              id,
		spec:            spec,
		state:           JobQueued,
		submitted:       time.Now(),
		deadline:        deadline,
		cancelRequested: make(chan struct{}),
		done:            make(chan struct{}),
	}
}

// newRecoveredJob rebuilds a job from its journaled lifecycle under its
// original ID. A job recovered terminal arrives fully settled (done closed,
// terminal accounting already spent — its outcome counters belong to the
// previous process); a non-terminal one arrives queued, ready for the
// recovery policy to requeue or fail it.
func newRecoveredJob(id string, spec JobSpec, deadline time.Time, state JobState, errMsg string, grain int) *Job {
	j := newJob(id, spec, deadline)
	j.grain = grain
	if state.Terminal() {
		j.state = state
		j.errMsg = errMsg
		j.finished = time.Now()
		j.terminalLogged.Store(true)
		close(j.done)
	}
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// aborted reports whether an abort (cancel or deadline) has been requested.
func (j *Job) aborted() bool {
	select {
	case <-j.cancelRequested:
		return true
	default:
		return false
	}
}

// requestAbort records the first abort request. toState picks the terminal
// state the job will land in (JobCancelled for client cancellation,
// JobFailed for deadline expiry). A job still queued transitions immediately;
// a running job's tasks observe the flag and drain.
func (j *Job) requestAbort(reason string, toState JobState) {
	j.cancelOnce.Do(func() {
		j.mu.Lock()
		j.cancelReason = reason
		j.cancelToState = toState
		close(j.cancelRequested)
		if j.state == JobQueued {
			j.state = toState
			j.errMsg = reason
			j.finished = time.Now()
			close(j.done)
		}
		j.mu.Unlock()
	})
}

// startRunning transitions queued→running, recording the grain decision. It
// reports false if the job was aborted while queued (the runner skips it).
func (j *Job) startRunning(grain int, source string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.grain = grain
	j.grainSource = source
	j.started = time.Now()
	return true
}

// finish moves a running job to its terminal state.
func (j *Job) finish(res *JobResult, runErr error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobRunning {
		return
	}
	j.finished = time.Now()
	switch {
	case j.cancelToState != "": // abort won the race
		j.state = j.cancelToState
		j.errMsg = j.cancelReason
	case runErr != nil:
		j.state = JobFailed
		j.errMsg = runErr.Error()
	default:
		j.state = JobDone
		j.result = res
	}
	close(j.done)
}

// journalState snapshots the fields a journal record or snapshot needs.
func (j *Job) journalState() (spec JobSpec, deadline time.Time, state JobState, errMsg string, grain int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec, j.deadline, j.state, j.errMsg, j.grain
}

// finishedAt returns when the job reached a terminal state (zero if it
// hasn't).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// setDecision records the adaptive tuner's verdict on the job's grain.
func (j *Job) setDecision(d string) {
	j.mu.Lock()
	j.decision = d
	j.mu.Unlock()
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Kind:        j.spec.Kind,
		Size:        j.spec.Size,
		Steps:       j.spec.Steps,
		Pattern:     j.spec.Pattern,
		State:       j.state,
		Grain:       j.grain,
		GrainSource: j.grainSource,
		Decision:    j.decision,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
		Result:      j.result,

		TraceContext: j.spec.TraceContext,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
		if !j.started.IsZero() {
			v.ElapsedMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	if !j.deadline.IsZero() {
		t := j.deadline
		v.DeadlineAt = &t
	}
	return v
}

// retainFinished bounds how many terminal jobs the store keeps for status
// polling; older finished jobs are evicted FIFO so a long-lived daemon's
// memory stays flat.
const retainFinished = 1024

// jobStore indexes jobs by ID (and idempotency key) and evicts old finished
// jobs.
type jobStore struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	keys   map[string]string // idempotency key → job ID
	order  []string          // insertion order, for listing and eviction
	nextID uint64
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job), keys: make(map[string]string)}
}

// add registers a new job under a fresh ID. If the spec carries an
// idempotency key already held by a retained job, that job is returned with
// dup=true instead — the check and the key registration are atomic, so
// concurrent duplicate submissions admit exactly one run.
func (st *jobStore) add(spec JobSpec, deadline time.Time) (j *Job, dup bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if spec.IdempotencyKey != "" {
		if id, ok := st.keys[spec.IdempotencyKey]; ok {
			if existing, ok := st.jobs[id]; ok {
				return existing, true
			}
		}
	}
	st.nextID++
	id := fmt.Sprintf("j-%d", st.nextID)
	j = newJob(id, spec, deadline)
	st.jobs[id] = j
	if spec.IdempotencyKey != "" {
		st.keys[spec.IdempotencyKey] = id
	}
	st.order = append(st.order, id)
	st.evictLocked()
	return j, false
}

// restore inserts a recovered job under its original ID, re-registering its
// idempotency key and advancing nextID past the recovered numeric suffix so
// fresh admissions never collide with replayed ones.
func (st *jobStore) restore(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.jobs[j.id] = j
	if j.spec.IdempotencyKey != "" {
		st.keys[j.spec.IdempotencyKey] = j.id
	}
	st.order = append(st.order, j.id)
	if n, err := strconv.ParseUint(strings.TrimPrefix(j.id, "j-"), 10, 64); err == nil && n > st.nextID {
		st.nextID = n
	}
}

// evictTerminalOlderThan drops terminal jobs that finished before cutoff,
// returning how many were evicted. Non-terminal jobs are never touched.
func (st *jobStore) evictTerminalOlderThan(cutoff time.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	evicted := 0
	kept := st.order[:0]
	for _, id := range st.order {
		j := st.jobs[id]
		if fin := j.finishedAt(); j.State().Terminal() && !fin.IsZero() && fin.Before(cutoff) {
			st.dropLocked(id)
			evicted++
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
	return evicted
}

// remove deletes a job that was never run (admission race loser).
func (st *jobStore) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.dropLocked(id)
	for i, oid := range st.order {
		if oid == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// dropLocked deletes one job and its key-index entry. Caller holds st.mu.
func (st *jobStore) dropLocked(id string) {
	if j, ok := st.jobs[id]; ok && j.spec.IdempotencyKey != "" {
		delete(st.keys, j.spec.IdempotencyKey)
	}
	delete(st.jobs, id)
}

// getByKey looks a job up by idempotency key ("" never matches).
func (st *jobStore) getByKey(key string) (*Job, bool) {
	if key == "" {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	id, ok := st.keys[key]
	if !ok {
		return nil, false
	}
	j, ok := st.jobs[id]
	return j, ok
}

// get looks a job up by ID.
func (st *jobStore) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// list snapshots every retained job in submission order.
func (st *jobStore) list() []*Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Job, 0, len(st.order))
	for _, id := range st.order {
		if j, ok := st.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// Non-terminal jobs are never evicted. Caller holds st.mu.
func (st *jobStore) evictLocked() {
	terminal := 0
	for _, id := range st.order {
		if st.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= retainFinished {
		return
	}
	kept := st.order[:0]
	for _, id := range st.order {
		if terminal > retainFinished && st.jobs[id].State().Terminal() {
			st.dropLocked(id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
}

// counts tallies jobs by state.
func (st *jobStore) counts() map[JobState]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[JobState]int)
	for _, j := range st.jobs {
		out[j.State()]++
	}
	return out
}
