// Package wire is the one typed schema of the jobs API that taskgraind nodes
// serve, taskmeshd gateways relay, and loadgen drives: the job spec, the job
// view, the batch request/response, and the error body — plus the HTTP
// helpers every tier needs to read and write them the same way. It imports
// nothing from the repository, so node, gateway and client can all depend on
// it; what a valid spec *means* (kinds, size limits) stays with the node that
// runs it.
package wire

import (
	"net/http"
	"time"
)

// JobState is a job's lifecycle state. Unlike task states (which the runtime
// owns), job states are service-level: queued (admitted, waiting for a
// runner slot), running (its task group is on the runtime), then exactly one
// of done, failed, or cancelled.
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobSpec is the request vocabulary of POST /v1/jobs: a parameterized task
// workload in the Task Bench style — kind, problem size, and the grain knob.
type JobSpec struct {
	// Kind selects the workload: stencil1d, fibonacci, irregular, or
	// taskbench.
	Kind string `json:"kind"`
	// Size is the problem size: grid points (stencil1d), the Fibonacci index
	// (fibonacci), total work points (irregular), or the task-grid width
	// (taskbench).
	Size int `json:"size"`
	// Steps is the time-step / dependency-generation count (default 4;
	// stencil1d and taskbench).
	Steps int `json:"steps,omitempty"`
	// Grain is the task grain: points per partition (stencil1d), the
	// sequential cutoff index (fibonacci), points per task (irregular), or
	// kernel work units per task (taskbench). Zero asks the server to
	// choose adaptively from live counters.
	Grain int `json:"grain,omitempty"`
	// Seed makes irregular DAG / taskbench random-pattern structure
	// reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Pattern selects the taskbench dependence pattern: trivial, chain,
	// stencil1d, fft, random, or tree (default stencil1d; taskbench only).
	Pattern string `json:"pattern,omitempty"`
	// Kernel selects the taskbench per-task kernel: busywork or memwalk
	// (default busywork; taskbench only).
	Kernel string `json:"kernel,omitempty"`
	// Metg, for taskbench jobs, additionally runs a bounded METG(50%)
	// search on the job's pattern and reports the figure in the result.
	Metg bool `json:"metg,omitempty"`
	// DeadlineMillis bounds the job's total service time (queue + run);
	// zero uses the server default.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// IdempotencyKey, when set, makes the submission replayable: a second
	// submit with the same key returns the already-admitted job instead of
	// running the work twice. Mesh gateways set it so failover resubmission
	// after a suspected node death stays exactly-once per node.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// TraceContext is the cross-hop trace identity ("%016x-%016x"
	// trace-span hex) a mesh gateway propagates; it normally arrives in the
	// Taskgrain-Trace header (which overrides the body) and is echoed in
	// job views so every hop of one job shares a trace ID.
	TraceContext string `json:"trace_context,omitempty"`
}

// JobResult summarizes a completed job's execution.
type JobResult struct {
	// Tasks is the number of runtime tasks the job spawned.
	Tasks int64 `json:"tasks"`
	// Checksum is a workload-defined digest of the computed values, so
	// clients can assert two runs computed the same thing.
	Checksum float64 `json:"checksum"`
	// IdleRate is Eq. 1 over the job's execution interval, from one
	// Σt_exec/Σt_func pair read at each edge; reported for every job, and
	// fed to the grain controller only when the grain was adaptive.
	// Approximate when jobs overlap on the shared runtime.
	IdleRate float64 `json:"idle_rate"`
	// Pattern echoes the dependence pattern a taskbench job ran.
	Pattern string `json:"pattern,omitempty"`
	// Efficiency is the taskbench run's parallel efficiency (1 − idle-rate
	// over its own counter interval).
	Efficiency float64 `json:"efficiency,omitempty"`
	// MetgNs is the METG(50%) figure of a taskbench job submitted with
	// metg=true: the smallest task duration (ns) that still met 50%
	// parallel efficiency on this pattern. MetgFound reports whether any
	// probed granularity met the target.
	MetgNs    float64 `json:"metg_ns,omitempty"`
	MetgFound bool    `json:"metg_found,omitempty"`
}

// MeshInfo is the placement block a gateway adds to the views it relays: the
// node holding the job, the failover retry count, the submission spill count,
// and the trace ID shared by every hop of the job.
type MeshInfo struct {
	Node    string `json:"node"`
	Retries int    `json:"retries"`
	Spills  int    `json:"spills"`
	TraceID string `json:"trace_id,omitempty"`
}

// JobView is the JSON representation of a job served by the API. A node's
// error reply ({"error","status"}) also decodes into it — ID stays empty and
// Error carries the message — so a relay needs one decode per reply.
type JobView struct {
	ID          string     `json:"id"`
	Kind        string     `json:"kind"`
	Size        int        `json:"size"`
	Steps       int        `json:"steps,omitempty"`
	Pattern     string     `json:"pattern,omitempty"`
	State       JobState   `json:"state"`
	Grain       int        `json:"grain,omitempty"`
	GrainSource string     `json:"grain_source,omitempty"`
	Decision    string     `json:"adaptive_decision,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	ElapsedMS   float64    `json:"elapsed_ms,omitempty"`
	DeadlineAt  *time.Time `json:"deadline_at,omitempty"`
	Error       string     `json:"error,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	// TraceContext echoes the propagated cross-hop trace identity, so a
	// client (or the mesh gateway) can stitch this job into its trace.
	TraceContext string `json:"trace_context,omitempty"`
	// Mesh is set only on views a gateway relays; there ID is the
	// mesh-scoped ID (node-local IDs collide across nodes).
	Mesh *MeshInfo `json:"mesh,omitempty"`
}

// BatchRequest is the body of POST /v1/jobs/batch.
type BatchRequest struct {
	Jobs []JobSpec `json:"jobs"`
}

// BatchItem is one job's outcome: a status with the job view, or the
// refusal's status and reason with the Retry-After hint in seconds. The
// results of POST /v1/jobs/batch are BatchItems index-aligned with the
// request's jobs array; every single-job reply — POST /v1/jobs as the one
// item of a one-item admit, a gateway's relayed status poll or cancel — is
// one BatchItem rendered by WriteItem.
type BatchItem struct {
	Status     int      `json:"status"`
	Job        *JobView `json:"job,omitempty"`
	Error      string   `json:"error,omitempty"`
	RetryAfter int      `json:"retry_after_s,omitempty"`
}

// Shed reports whether the item was refused for load (429/503) — the
// refusals a client should retry after backing off.
func (it BatchItem) Shed() bool {
	return it.Status == http.StatusTooManyRequests || it.Status == http.StatusServiceUnavailable
}

// BatchResponse is the reply to POST /v1/jobs/batch.
type BatchResponse struct {
	Admitted int         `json:"admitted"`
	Shed     int         `json:"shed"`
	Results  []BatchItem `json:"results"`
}

// Error is the body of every non-2xx reply.
type Error struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}
