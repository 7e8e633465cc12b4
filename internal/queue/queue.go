// Package queue provides the task-queue substrate of the runtime: a
// lock-free multi-producer/multi-consumer FIFO (the paper's scheduler is the
// composition of the Priority Local policy with "the lock free FIFO queuing
// policy"), an instrumented wrapper that counts accesses and misses exactly
// like the HPX /threads/count/pending-accesses and -misses counters, and a
// mutex-based double-ended queue used by the LIFO work-stealing policy
// ablation.
package queue

import (
	"sync"
	"sync/atomic"
)

// Queue is the minimal FIFO interface the scheduler consumes.
type Queue[T any] interface {
	// Push appends v to the tail.
	Push(v T)
	// Pop removes and returns the head, reporting whether one was present.
	Pop() (T, bool)
	// Len returns the current number of elements (may be approximate under
	// concurrency, but exact when quiescent).
	Len() int
}

// node is a Michael–Scott queue link.
type node[T any] struct {
	value T
	next  atomic.Pointer[node[T]]
}

// MSQueue is an unbounded lock-free FIFO (Michael & Scott, 1996). Go's
// garbage collector eliminates the ABA problem, so no tagged pointers are
// needed. The zero value is not usable; construct with NewMS.
//
// The queue keeps no element count: a shared counter would cost every push
// and pop one more contended atomic, and only tests ask for the length.
type MSQueue[T any] struct {
	head atomic.Pointer[node[T]] // points at a dummy node
	tail atomic.Pointer[node[T]]
}

// NewMS returns an empty lock-free FIFO.
func NewMS[T any]() *MSQueue[T] {
	q := &MSQueue[T]{}
	dummy := &node[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Push appends v to the tail. Safe for any number of concurrent producers.
func (q *MSQueue[T]) Push(v T) {
	n := &node[T]{value: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved underneath us; retry
		}
		if next != nil {
			// Tail is lagging; help advance it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			return
		}
	}
}

// Pop removes the head element. Safe for any number of concurrent consumers.
func (q *MSQueue[T]) Pop() (T, bool) {
	var zero T
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if next == nil {
			return zero, false // empty
		}
		if head == tail {
			// Tail lagging behind a concurrent push; help it along.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if q.head.CompareAndSwap(head, next) {
			// Read the value only after winning the CAS: the winner is the
			// unique goroutine to advance head past this node, so the slot
			// sees exactly one reader and one (clearing) writer. Reading it
			// before the CAS would race with the winner's clear below.
			v := next.value
			// Clear the value slot so the GC can reclaim large payloads
			// while `next` serves as the new dummy node.
			next.value = zero
			return v, true
		}
	}
}

// PushBatch appends vs in order with a single linearization point: the
// nodes are carved from one slab allocation and linked into a private chain
// first, then the whole chain is spliced onto the tail with one successful
// CAS — one contention window per batch instead of one per element.
// Afterwards the tail pointer may lag inside the chain; the usual
// Michael–Scott helping in Push/Pop advances it. A popped node stays the
// dummy until the next pop, so it keeps its slab (not the values, which pop
// clears) reachable until then.
func (q *MSQueue[T]) PushBatch(vs []T) {
	if len(vs) == 0 {
		return
	}
	nodes := make([]node[T], len(vs))
	for i, v := range vs {
		nodes[i].value = v
		if i > 0 {
			nodes[i-1].next.Store(&nodes[i])
		}
	}
	first, last := &nodes[0], &nodes[len(nodes)-1]
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved underneath us; retry
		}
		if next != nil {
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, first) {
			q.tail.CompareAndSwap(tail, last)
			return
		}
	}
}

// PopN removes up to len(buf) elements from the head into buf, in order,
// and returns how many it took — the consumer-side twin of PushBatch: one
// head CAS moves past the whole run. The run never extends past the tail
// the pop observed, so head never overtakes tail, and as in Pop the values
// are read and cleared only after the CAS makes this goroutine their sole
// owner. Safe for any number of concurrent consumers.
func (q *MSQueue[T]) PopN(buf []T) int {
	if len(buf) == 0 {
		return 0
	}
	var zero T
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if next == nil {
			return 0 // empty
		}
		if head == tail {
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		// tail was read while head was current, so it is reachable from
		// head and every link up to it is set.
		last, k := next, 1
		for k < len(buf) && last != tail {
			last = last.next.Load()
			k++
		}
		if q.head.CompareAndSwap(head, last) {
			n := next
			for i := 0; i < k; i++ {
				buf[i] = n.value
				n.value = zero
				n = n.next.Load()
			}
			return k
		}
	}
}

// Len counts the queued elements by walking the list: O(n), exact only
// when the queue is quiescent. Meant for tests and diagnostics.
func (q *MSQueue[T]) Len() int {
	n := 0
	for p := q.head.Load().next.Load(); p != nil; p = p.next.Load() {
		n++
	}
	return n
}

// Empty reports whether the queue appears empty.
func (q *MSQueue[T]) Empty() bool { return q.head.Load().next.Load() == nil }

// Instrumented wraps a Queue and maintains the access/miss counts the paper
// reports per pending queue: every Pop is an access; a Pop that finds no
// work is a miss (Sec. II-A, "Thread Pending Queue Metrics").
type Instrumented[T any] struct {
	inner    Queue[T]
	accesses atomic.Uint64
	misses   atomic.Uint64
}

// NewInstrumented wraps inner with access/miss counting.
func NewInstrumented[T any](inner Queue[T]) *Instrumented[T] {
	return &Instrumented[T]{inner: inner}
}

// Push forwards to the wrapped queue (pushes are not counted; the paper's
// counters track scheduler *look-ups* for work).
func (q *Instrumented[T]) Push(v T) { q.inner.Push(v) }

// Pop counts one access, and one miss if no element was available.
func (q *Instrumented[T]) Pop() (T, bool) {
	q.accesses.Add(1)
	v, ok := q.inner.Pop()
	if !ok {
		q.misses.Add(1)
	}
	return v, ok
}

// Len forwards to the wrapped queue.
func (q *Instrumented[T]) Len() int { return q.inner.Len() }

// Accesses returns the cumulative number of Pop attempts.
func (q *Instrumented[T]) Accesses() uint64 { return q.accesses.Load() }

// Misses returns the cumulative number of empty Pop attempts.
func (q *Instrumented[T]) Misses() uint64 { return q.misses.Load() }

// Deque is a mutex-protected double-ended queue used by the work-stealing
// LIFO policy ablation: the owner pushes/pops at the back (LIFO), thieves
// steal from the front (FIFO). It intentionally trades peak throughput for
// simplicity; the ablation compares scheduling *policies*, not queue
// implementations.
type Deque[T any] struct {
	mu    sync.Mutex
	items []T
}

// NewDeque returns an empty deque.
func NewDeque[T any]() *Deque[T] { return &Deque[T]{} }

// Push appends v at the back.
func (d *Deque[T]) Push(v T) {
	d.mu.Lock()
	d.items = append(d.items, v)
	d.mu.Unlock()
}

// PushBatch appends vs in order at the back under one lock acquisition.
func (d *Deque[T]) PushBatch(vs []T) {
	d.mu.Lock()
	d.items = append(d.items, vs...)
	d.mu.Unlock()
}

// Pop removes from the back (owner side, LIFO).
func (d *Deque[T]) Pop() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return zero, false
	}
	v := d.items[n-1]
	d.items[n-1] = zero
	d.items = d.items[:n-1]
	return v, true
}

// Steal removes from the front (thief side, FIFO).
func (d *Deque[T]) Steal() (T, bool) {
	var zero T
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return zero, false
	}
	v := d.items[0]
	d.items[0] = zero
	d.items = d.items[1:]
	return v, true
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.items)
}

// compile-time interface checks
var (
	_ Queue[int] = (*MSQueue[int])(nil)
	_ Queue[int] = (*Instrumented[int])(nil)
	_ Queue[int] = (*Deque[int])(nil)
)
