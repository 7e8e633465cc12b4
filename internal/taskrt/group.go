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
	g.pending.Add(int64(len(fns)))
	return g.rt.spawnBatchInternal(fns, g.done, opts...)
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
