// Package taskrt implements the native task runtime the study runs on: an
// HPX-like user-level M:N scheduler with lightweight run-to-completion task
// phases, the five-state task lifecycle (staged, pending, active, suspended,
// terminated), per-worker dual queues (staged + pending), a configurable
// number of high-priority queues, one low-priority queue, and the NUMA-aware
// six-step work-discovery order of the Priority Local-FIFO policy (Fig. 1 of
// the paper).
//
// Tasks are cooperatively scheduled: a task phase runs without preemption
// until it returns or suspends (continuation style). Every event feeding the
// paper's metrics — execution time, phase counts, queue accesses and misses,
// steals — is recorded in the counters registry under HPX-compatible names.
package taskrt

import (
	"fmt"
	"sync/atomic"
)

// State is a task lifecycle state (Sec. I-B: "The five HPX-thread states are
// staged, pending, active, suspended, and terminated").
type State int32

// Task lifecycle states.
const (
	Staged State = iota
	Pending
	Active
	Suspended
	Terminated
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case Staged:
		return "staged"
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Suspended:
		return "suspended"
	case Terminated:
		return "terminated"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// legalTransition encodes the task-state DAG. Staged→Pending (context
// creation), Pending→Active (dispatch), Active→Suspended (wait),
// Active→Terminated (completion), Suspended→Pending (resume).
func legalTransition(from, to State) bool {
	switch from {
	case Staged:
		return to == Pending
	case Pending:
		return to == Active
	case Active:
		return to == Suspended || to == Terminated
	case Suspended:
		return to == Pending
	default:
		return false
	}
}

// Priority selects which queue family a task is scheduled on.
type Priority int

// Task priorities. Normal-priority tasks use the per-worker dual queues;
// high-priority tasks use the dedicated high-priority dual queues served
// first; low-priority tasks run only when no other work exists.
const (
	PriorityNormal Priority = iota
	PriorityHigh
	PriorityLow
)

// String returns the lower-case priority name.
func (p Priority) String() string {
	switch p {
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// AnyWorker is the scheduling hint meaning "no placement preference".
const AnyWorker = -1

// Task is a first-class lightweight thread: it owns an identity, a state,
// a phase counter, and the closure to run for its current phase.
type Task struct {
	id       uint64
	fn       func(*Context)
	state    atomic.Int32
	priority Priority
	hint     int // preferred worker, AnyWorker if none
	phases   atomic.Int64
	rt       *Runtime

	// resumeGate synchronizes the end of a suspending phase with the
	// Resumer: whichever side arrives second (gate reaches 2) performs the
	// requeue, so a resume can never race the tail of the old phase.
	resumeGate atomic.Int32

	// cancelled marks a task whose execution should be skipped when a
	// worker dequeues it. Queues are not searched; the flag is honored at
	// dispatch time (lazy cancellation).
	cancelled atomic.Bool

	// onDone, when set (by Group), runs exactly once when the task reaches
	// Terminated — whether it completed, panicked, or was cancelled — with
	// the value recovered from a panicking phase (nil otherwise).
	onDone func(t *Task, recovered any)

	// ctx is the phase context, reset at the start of every phase. It lives
	// in the task so a phase costs no allocation.
	ctx Context
}

// init fills a zero task record; the zero state is already Staged.
func (t *Task) init(rt *Runtime, id uint64, fn func(*Context), onDone func(*Task, any), opts []SpawnOption) {
	t.id = id
	t.fn = fn
	t.hint = AnyWorker
	t.rt = rt
	t.onDone = onDone
	t.ctx.rt = rt
	t.ctx.task = t
	for _, o := range opts {
		o(t)
	}
}

// notifyDone invokes the termination callback, if any.
func (t *Task) notifyDone(recovered any) {
	if t.onDone != nil {
		t.onDone(t, recovered)
	}
}

// Cancel requests that the task never execute (another phase). It is lazy:
// the task stays queued and is discarded when a worker dequeues it, the
// same way cooperative runtimes avoid scanning queues. Cancel reports
// whether the request was recorded before any observation of completion —
// a true return does NOT guarantee the task did not run (it may already be
// executing or have finished); check State() == Terminated together with
// WasCancelled for the definitive answer after quiescence.
func (t *Task) Cancel() bool {
	if t.State() == Terminated {
		return false
	}
	t.cancelled.Store(true)
	return true
}

// WasCancelled reports whether Cancel was requested.
func (t *Task) WasCancelled() bool { return t.cancelled.Load() }

// ID returns the task's unique (per-runtime) identifier.
func (t *Task) ID() uint64 { return t.id }

// State returns the task's current lifecycle state.
func (t *Task) State() State { return State(t.state.Load()) }

// Priority returns the task's scheduling priority.
func (t *Task) Priority() Priority { return t.priority }

// Phases returns how many phases the task has started (>= 1 once it has run;
// a task that suspended and resumed n times reports n+1).
func (t *Task) Phases() int64 { return t.phases.Load() }

// transition moves the task between states, panicking on an illegal edge —
// such an edge is always a runtime bug, never a user error.
func (t *Task) transition(from, to State) {
	if !legalTransition(from, to) {
		panic(fmt.Sprintf("taskrt: illegal transition %v -> %v (task %d)", from, to, t.id))
	}
	if !t.state.CompareAndSwap(int32(from), int32(to)) {
		panic(fmt.Sprintf("taskrt: lost transition race %v -> %v (task %d, now %v)",
			from, to, t.id, t.State()))
	}
}
