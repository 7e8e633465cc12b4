package taskrt

// Context is passed to every task phase. It identifies the executing worker
// and task, and provides the cooperative-scheduling operations a phase may
// perform: spawning children and suspending into a continuation.
//
// A task owns one Context, reset at the start of each phase, so a phase must
// not use its *Context after it returns: a resumed phase sees the same
// pointer reporting its own worker.
type Context struct {
	rt     *Runtime
	worker int
	task   *Task

	// phase-local suspension bookkeeping
	suspended bool
	cont      func(*Context)
}

// Runtime returns the runtime executing this phase.
func (c *Context) Runtime() *Runtime { return c.rt }

// Worker returns the index of the worker thread executing this phase.
func (c *Context) Worker() int { return c.worker }

// Task returns the task this phase belongs to.
func (c *Context) Task() *Task { return c.task }

// Spawn creates a child task. Equivalent to c.Runtime().Spawn but reads
// naturally inside task bodies.
func (c *Context) Spawn(fn func(*Context), opts ...SpawnOption) *Task {
	return c.rt.Spawn(fn, opts...)
}

// SuspendInto ends the current phase in the Suspended state and installs
// cont as the task's next phase. The returned Resumer must be fired exactly
// once (typically by a future's completion callback); when it fires, the
// task re-enters a pending queue and cont runs as a new phase of the same
// task — this is what increments /threads/count/cumulative-phases without
// incrementing /threads/count/cumulative.
//
// SuspendInto must be the logically last action of the phase: code running
// after it in the same closure must not touch state the continuation reads,
// because the continuation may start on another worker as soon as the phase
// returns.
func (c *Context) SuspendInto(cont func(*Context)) *Resumer {
	if c.suspended {
		panic("taskrt: SuspendInto called twice in one phase")
	}
	if cont == nil {
		panic("taskrt: SuspendInto with nil continuation")
	}
	c.suspended = true
	c.cont = cont
	c.task.resumeGate.Store(0)
	return &Resumer{t: c.task}
}

// Yield ends the current phase and reschedules cont as a new phase of the
// same task at the back of a pending queue — cooperative yielding ("ends a
// thread-phase" in the paper's terms). Equivalent to SuspendInto followed by
// an immediate Resume.
func (c *Context) Yield(cont func(*Context)) {
	c.SuspendInto(cont).Resume()
}

// Resumer wakes a task suspended by SuspendInto.
type Resumer struct {
	t *Task
}

// Resume makes the suspended task runnable again. It synchronizes with the
// end of the suspending phase, so it is safe to call from any goroutine at
// any point after SuspendInto returns — even before the suspending phase
// has finished unwinding. Calling Resume twice panics.
func (r *Resumer) Resume() {
	t := r.t
	for {
		v := t.resumeGate.Load()
		if v >= 2 {
			panic("taskrt: Resume called twice")
		}
		if t.resumeGate.CompareAndSwap(v, v+1) {
			if v+1 == 2 {
				// The phase has fully ended; we perform the requeue.
				t.rt.resumeNow(t)
			}
			// Otherwise the phase end will observe gate==2 and requeue.
			return
		}
	}
}
