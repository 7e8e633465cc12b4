package taskrt

import (
	"sync"
	"sync/atomic"
)

// Group tracks a set of spawned tasks so an application goroutine can wait
// for exactly that set (rather than whole-runtime quiescence via WaitIdle).
// A group task counts as finished when it terminates for any reason —
// normal completion after its final phase, a contained panic, or lazy
// cancellation.
//
// Semantics follow sync.WaitGroup: do not let the count reach zero while
// concurrently spawning more tasks that a pending Wait should cover.
// Group.Wait blocks the calling goroutine; do not call it from inside a
// task phase (suspend on futures instead — workers must never block).
type Group struct {
	rt      *Runtime
	pending atomic.Int64
	done    func(*Task, any) // taskDone, bound once rather than per spawn

	// mu guards panics and pairs with cond; a completion takes it only to
	// record a panic or to wake Wait on the last completion.
	mu     sync.Mutex
	cond   *sync.Cond
	panics []any

	// records are the task records Run reuses, grown to its largest wave,
	// and tasks a handle to each.
	records []Task
	tasks   []*Task
}

// NewGroup creates an empty task group on rt.
func (rt *Runtime) NewGroup() *Group {
	g := &Group{rt: rt}
	g.done = g.taskDone
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Spawn adds one task to the group. The returned task is the same handle
// rt.Spawn would return.
func (g *Group) Spawn(fn func(*Context), opts ...SpawnOption) *Task {
	g.pending.Add(1)
	return g.rt.spawnInternal(fn, g.done, opts...)
}

// SpawnBatch adds len(fns) tasks to the group through one
// Runtime.SpawnBatch transaction. opts apply to every task.
func (g *Group) SpawnBatch(fns []func(*Context), opts ...SpawnOption) []*Task {
	if len(fns) == 0 {
		return nil
	}
	_, tasks := newTaskSlab(len(fns))
	g.pending.Add(int64(len(fns)))
	g.rt.spawnBatchInternal(tasks, fns, g.done, opts...)
	return tasks
}

// Run spawns one task per fn into the group as one batch, waits for them,
// and returns the number of group tasks that have panicked, as Wait does.
// The group owns the task records and reuses them on every call, so Run
// returns no handles and allocates no records once it has run its largest
// wave. Run panics if the group has tasks pending at entry: their records
// may be the ones it is about to reuse.
//
// Reuse is safe because no handle escapes and a record is idle by the time
// Wait returns: a task touches its record only before its group's pending
// count drops (terminate notifies the group last), the last decrement
// happens after every other, and a queue pop clears the node that held the
// task. Run zeroes a record before reusing it, so a task starts Staged with
// no phases. A Resumer or *Context kept past its phase must not be used,
// here as anywhere.
func (g *Group) Run(fns []func(*Context)) int {
	if g.pending.Load() != 0 {
		panic("taskrt: Group.Run with tasks pending")
	}
	n := len(fns)
	if n > len(g.records) {
		g.records, g.tasks = newTaskSlab(n)
	} else {
		clear(g.records[:n])
	}
	if n > 0 {
		g.pending.Add(int64(n))
		g.rt.spawnBatchInternal(g.tasks[:n], fns, g.done)
	}
	return g.Wait()
}

// taskDone is the runtime's termination callback for group tasks (normal
// exit, panic, or cancellation); recovered is the panic value, if any.
func (g *Group) taskDone(_ *Task, recovered any) {
	if recovered != nil {
		g.mu.Lock()
		g.panics = append(g.panics, recovered)
		g.mu.Unlock()
	}
	if g.pending.Add(-1) == 0 {
		// Wait checks the count under mu, so broadcasting under mu cannot
		// slip between its check and its sleep.
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// Wait blocks until every task spawned through the group has terminated
// and returns the number that panicked (recovered values via Panics).
// Waiting on an empty group returns immediately.
func (g *Group) Wait() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.pending.Load() > 0 {
		g.cond.Wait()
	}
	return len(g.panics)
}

// Panics returns the recovered values of group tasks that panicked, in
// completion order.
func (g *Group) Panics() []any {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]any, len(g.panics))
	copy(out, g.panics)
	return out
}
