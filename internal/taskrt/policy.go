package taskrt

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"taskgrain/internal/chaos"
	"taskgrain/internal/counters"
	"taskgrain/internal/queue"
	"taskgrain/internal/topology"
)

// PolicyKind selects the scheduling policy a runtime is built with.
type PolicyKind int

// Scheduling policies.
const (
	// PriorityLocalFIFO is the paper's scheduler: per-worker staged+pending
	// dual queues, high-priority dual queues, one low-priority queue, and
	// the six-step NUMA-aware discovery order of Fig. 1.
	PriorityLocalFIFO PolicyKind = iota
	// StaticRoundRobin distributes tasks round-robin over per-worker queues
	// with no work stealing (ablation baseline: shows load imbalance).
	StaticRoundRobin
	// WorkStealingLIFO gives each worker a deque: owner pops LIFO, thieves
	// steal FIFO (Cilk-style ablation baseline).
	WorkStealingLIFO
)

// String returns the policy's canonical name.
func (k PolicyKind) String() string {
	switch k {
	case PriorityLocalFIFO:
		return "priority-local-fifo"
	case StaticRoundRobin:
		return "static-round-robin"
	case WorkStealingLIFO:
		return "work-stealing-lifo"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// ParsePolicy maps a canonical policy name back to its PolicyKind.
func ParsePolicy(s string) (PolicyKind, error) {
	switch s {
	case "priority-local-fifo":
		return PriorityLocalFIFO, nil
	case "static-round-robin":
		return StaticRoundRobin, nil
	case "work-stealing-lifo":
		return WorkStealingLIFO, nil
	}
	return 0, fmt.Errorf("taskrt: unknown policy %q", s)
}

// policyCounters are the queue-activity counters every policy maintains,
// sharded by the worker owning the probed queue. A queue's look-ups are a
// pair: misses, of accesses = hits + misses (see countMiss/countHit).
type policyCounters struct {
	pending *counters.Pair
	staged  *counters.Pair
	stolen  *counters.PerWorker
}

func newPolicyCounters(workers int) *policyCounters {
	return &policyCounters{
		pending: counters.NewPair(counters.PendingMisses, counters.PendingAccesses, workers),
		staged:  counters.NewPair(counters.StagedMisses, counters.StagedAccesses, workers),
		stolen:  counters.NewPerWorker(counters.CountStolen, workers),
	}
}

// countMiss records a look-up of worker w's queue that found no work.
func countMiss(look *counters.Pair, w int) { look.AddPart(w, 1) }

// countHit records a look-up of worker w's queue that found work.
func countHit(look *counters.Pair, w int) { look.AddRest(w, 1) }

// countHits records n look-ups of worker w's queue that found work.
func countHits(look *counters.Pair, w int, n int) { look.AddRest(w, int64(n)) }

// schedPolicy is the queue structure + discovery order of a scheduler.
// Implementations must be safe for concurrent use by all workers.
//
// Push methods return the home worker index the task landed on, so the
// runtime can target its wake at a worker close to the work, or -1 when the
// task went to a shared (high/low-priority) queue reachable from anywhere.
type schedPolicy interface {
	// pushStaged enqueues a newly created (staged) task.
	pushStaged(t *Task) int
	// pushStagedBatch enqueues a batch of newly created tasks with one
	// batched push per destination queue. All tasks share ts[0]'s priority
	// and hint (the SpawnBatch contract: one option set for the batch).
	// ts must be non-empty.
	pushStagedBatch(ts []*Task) int
	// pushPending enqueues a runnable task (resumed from suspension, or one
	// whose staged phase is skipped).
	pushPending(t *Task) int
	// next finds the next runnable task for worker w, converting staged
	// tasks as needed. The returned task is in state Pending.
	next(w int) *Task
}

// placement returns the home worker for a task: its hint if set, otherwise
// round-robin.
type placer struct {
	workers int
	rr      atomic.Uint64
}

func (p *placer) place(t *Task) int {
	if t.hint != AnyWorker {
		// Floored modulo: Go's % truncates toward zero, so a negative hint
		// (any value other than the AnyWorker sentinel) would yield a
		// negative index and panic the worker on the queue lookup.
		h := t.hint % p.workers
		if h < 0 {
			h += p.workers
		}
		return h
	}
	return int(p.rr.Add(1)-1) % p.workers
}

// scatter distributes an unhinted batch as contiguous chunks round-robin
// over the per-worker queues — ceil(n/workers) tasks per chunk, one batched
// push per chunk — and returns the first chunk's home worker. Contiguity
// keeps a worker's share of the batch on one queue (locality for the woken
// worker); round-robin keeps successive batches spread like per-task spawn.
func (p *placer) scatter(ts []*Task, push func(w int, chunk []*Task)) int {
	n := len(ts)
	chunk := (n + p.workers - 1) / p.workers
	home := -1
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		w := int(p.rr.Add(1)-1) % p.workers
		push(w, ts[lo:hi])
		if home < 0 {
			home = w
		}
	}
	return home
}

// priorityLocal implements the Priority Local-FIFO policy.
type priorityLocal struct {
	topo        *topology.Topology
	pc          *policyCounters
	stagedBatch int
	hooks       chaos.Hooks // nil outside chaos tests

	pending []*queue.MSQueue[*Task] // per worker
	staged  []*queue.MSQueue[*Task] // per worker

	hpPending []*queue.MSQueue[*Task] // high-priority dual queues (K of them)
	hpStaged  []*queue.MSQueue[*Task]
	hpRR      atomic.Uint64

	low *queue.MSQueue[*Task] // single low-priority queue

	place placer

	// convert is each worker's scratch buffer for convertLocalStaged.
	convert [][]*Task

	// victim orders cached per worker, split by NUMA locality
	localVictims  [][]int
	remoteVictims [][]int
}

func newPriorityLocal(topo *topology.Topology, pc *policyCounters, highQueues, stagedBatch int, hooks chaos.Hooks) *priorityLocal {
	n := topo.Workers()
	if highQueues < 1 {
		highQueues = 1
	}
	if highQueues > n {
		highQueues = n
	}
	if stagedBatch < 1 {
		stagedBatch = 1
	}
	p := &priorityLocal{
		topo:        topo,
		pc:          pc,
		stagedBatch: stagedBatch,
		hooks:       hooks,
		pending:     make([]*queue.MSQueue[*Task], n),
		staged:      make([]*queue.MSQueue[*Task], n),
		hpPending:   make([]*queue.MSQueue[*Task], highQueues),
		hpStaged:    make([]*queue.MSQueue[*Task], highQueues),
		low:         queue.NewMS[*Task](),
		place:       placer{workers: n},
		convert:     make([][]*Task, n),
	}
	for i := 0; i < n; i++ {
		p.pending[i] = queue.NewMS[*Task]()
		p.staged[i] = queue.NewMS[*Task]()
		p.convert[i] = make([]*Task, stagedBatch)
	}
	for i := 0; i < highQueues; i++ {
		p.hpPending[i] = queue.NewMS[*Task]()
		p.hpStaged[i] = queue.NewMS[*Task]()
	}
	p.localVictims = make([][]int, n)
	p.remoteVictims = make([][]int, n)
	for w := 0; w < n; w++ {
		for _, v := range topo.VictimOrder(w) {
			if topo.SameDomain(w, v) {
				p.localVictims[w] = append(p.localVictims[w], v)
			} else {
				p.remoteVictims[w] = append(p.remoteVictims[w], v)
			}
		}
	}
	return p
}

func (p *priorityLocal) pushStaged(t *Task) int {
	switch t.priority {
	case PriorityHigh:
		q := int(p.hpRR.Add(1)-1) % len(p.hpStaged)
		p.hpStaged[q].Push(t)
		return -1
	case PriorityLow:
		// Low-priority tasks have no staged stage worth modeling: they are
		// runnable whenever everything else is drained.
		t.transition(Staged, Pending)
		p.low.Push(t)
		return -1
	default:
		home := p.place.place(t)
		p.staged[home].Push(t)
		return home
	}
}

func (p *priorityLocal) pushStagedBatch(ts []*Task) int {
	switch ts[0].priority {
	case PriorityHigh:
		q := int(p.hpRR.Add(1)-1) % len(p.hpStaged)
		p.hpStaged[q].PushBatch(ts)
		return -1
	case PriorityLow:
		for _, t := range ts {
			t.transition(Staged, Pending)
		}
		p.low.PushBatch(ts)
		return -1
	default:
		if ts[0].hint != AnyWorker {
			home := p.place.place(ts[0])
			p.staged[home].PushBatch(ts)
			return home
		}
		return p.place.scatter(ts, func(w int, chunk []*Task) {
			p.staged[w].PushBatch(chunk)
		})
	}
}

func (p *priorityLocal) pushPending(t *Task) int {
	switch t.priority {
	case PriorityHigh:
		q := int(p.hpRR.Add(1)-1) % len(p.hpPending)
		p.hpPending[q].Push(t)
		return -1
	case PriorityLow:
		p.low.Push(t)
		return -1
	default:
		home := p.place.place(t)
		p.pending[home].Push(t)
		return home
	}
}

// popCounted pops q, counting a hit or a miss on worker owner's pair.
func popCounted(q *queue.MSQueue[*Task], look *counters.Pair, owner int) *Task {
	t, ok := q.Pop()
	if !ok {
		countMiss(look, owner)
		return nil
	}
	countHit(look, owner)
	return t
}

// popPending pops worker owner's pending queue, counting hit or miss.
func (p *priorityLocal) popPending(owner int) *Task {
	return popCounted(p.pending[owner], p.pc.pending, owner)
}

// popStaged pops worker owner's staged queue, counting hit or miss.
func (p *priorityLocal) popStaged(owner int) *Task {
	return popCounted(p.staged[owner], p.pc.staged, owner)
}

// convertLocalStaged moves up to stagedBatch staged tasks of worker w into
// w's pending queue with one batched pop and one batched push (HPX's
// wait_or_add_new), reporting whether any moved. The look-ups count as the
// pop-at-a-time loop they replace would: one hit per task taken, and one
// miss when the queue ran dry before the batch filled.
func (p *priorityLocal) convertLocalStaged(w int) bool {
	batch := p.convert[w]
	k := p.staged[w].PopN(batch)
	if k < len(batch) {
		countMiss(p.pc.staged, w)
	}
	if k == 0 {
		return false
	}
	countHits(p.pc.staged, w, k)
	for _, t := range batch[:k] {
		t.transition(Staged, Pending)
	}
	p.pending[w].PushBatch(batch[:k])
	clear(batch[:k])
	return true
}

func (p *priorityLocal) next(w int) *Task {
	// High-priority dual queue assigned to this worker (served first).
	hq := w % len(p.hpPending)
	if t, ok := p.hpPending[hq].Pop(); ok {
		return t
	}
	if t, ok := p.hpStaged[hq].Pop(); ok {
		t.transition(Staged, Pending)
		return t
	}

	// 1. Local pending.
	if t := p.popPending(w); t != nil {
		return t
	}
	// 2. Local staged (convert a batch, then take from pending).
	if p.convertLocalStaged(w) {
		if t := p.popPending(w); t != nil {
			return t
		}
	}
	// 3. Local-NUMA staged, 4. local-NUMA pending.
	if t := p.stealFrom(w, p.localVictims[w]); t != nil {
		return t
	}
	// 5. Remote-NUMA staged, 6. remote-NUMA pending.
	if t := p.stealFrom(w, p.remoteVictims[w]); t != nil {
		return t
	}
	// Low priority: only when all other work is exhausted.
	if t, ok := p.low.Pop(); ok {
		return t
	}
	return nil
}

// stealFrom probes victims' staged queues first, then pending queues,
// following the paper's discovery order within one NUMA tier.
func (p *priorityLocal) stealFrom(w int, victims []int) *Task {
	if h := p.hooks; h != nil && len(victims) > 1 {
		// Chaos injection: probe this sweep's victims in a perturbed order.
		// The cached NUMA order is copied so the perturbation is per sweep.
		scan := append([]int(nil), victims...)
		h.PermuteVictims(w, scan)
		victims = scan
	}
	for _, v := range victims {
		if t := p.popStaged(v); t != nil {
			t.transition(Staged, Pending)
			p.pc.stolen.Inc(w)
			return t
		}
	}
	for _, v := range victims {
		if t := p.popPending(v); t != nil {
			p.pc.stolen.Inc(w)
			return t
		}
	}
	return nil
}

// staticRR implements the no-stealing baseline.
type staticRR struct {
	pc      *policyCounters
	pending []*queue.MSQueue[*Task]
	staged  []*queue.MSQueue[*Task]
	place   placer
}

func newStaticRR(workers int, pc *policyCounters) *staticRR {
	s := &staticRR{
		pc:      pc,
		pending: make([]*queue.MSQueue[*Task], workers),
		staged:  make([]*queue.MSQueue[*Task], workers),
		place:   placer{workers: workers},
	}
	for i := range s.pending {
		s.pending[i] = queue.NewMS[*Task]()
		s.staged[i] = queue.NewMS[*Task]()
	}
	return s
}

func (s *staticRR) pushStaged(t *Task) int {
	h := s.place.place(t)
	s.staged[h].Push(t)
	return h
}

func (s *staticRR) pushStagedBatch(ts []*Task) int {
	if ts[0].hint != AnyWorker {
		h := s.place.place(ts[0])
		s.staged[h].PushBatch(ts)
		return h
	}
	return s.place.scatter(ts, func(w int, chunk []*Task) {
		s.staged[w].PushBatch(chunk)
	})
}

func (s *staticRR) pushPending(t *Task) int {
	h := s.place.place(t)
	s.pending[h].Push(t)
	return h
}

func (s *staticRR) next(w int) *Task {
	if t := popCounted(s.pending[w], s.pc.pending, w); t != nil {
		return t
	}
	if t := popCounted(s.staged[w], s.pc.staged, w); t != nil {
		t.transition(Staged, Pending)
		return t
	}
	return nil
}

// stealLIFO implements the Cilk-style ablation baseline.
type stealLIFO struct {
	pc     *policyCounters
	deques []*queue.Deque[*Task]
	place  placer
	order  [][]int // victim order per worker
	rng    []*rand.Rand
}

func newStealLIFO(topo *topology.Topology, pc *policyCounters) *stealLIFO {
	n := topo.Workers()
	s := &stealLIFO{
		pc:     pc,
		deques: make([]*queue.Deque[*Task], n),
		place:  placer{workers: n},
		order:  make([][]int, n),
		rng:    make([]*rand.Rand, n),
	}
	for i := 0; i < n; i++ {
		s.deques[i] = queue.NewDeque[*Task]()
		s.order[i] = topo.VictimOrder(i)
		s.rng[i] = rand.New(rand.NewSource(int64(i)*2654435761 + 1))
	}
	return s
}

// pushStaged under LIFO stealing: the staged stage is collapsed — the task
// is made runnable immediately on the owner's deque.
func (s *stealLIFO) pushStaged(t *Task) int {
	t.transition(Staged, Pending)
	return s.pushPending(t)
}

func (s *stealLIFO) pushStagedBatch(ts []*Task) int {
	for _, t := range ts {
		t.transition(Staged, Pending)
	}
	if ts[0].hint != AnyWorker {
		h := s.place.place(ts[0])
		s.deques[h].PushBatch(ts)
		return h
	}
	return s.place.scatter(ts, func(w int, chunk []*Task) {
		s.deques[w].PushBatch(chunk)
	})
}

func (s *stealLIFO) pushPending(t *Task) int {
	h := s.place.place(t)
	s.deques[h].Push(t)
	return h
}

func (s *stealLIFO) next(w int) *Task {
	if t, ok := s.deques[w].Pop(); ok {
		countHit(s.pc.pending, w)
		return t
	}
	countMiss(s.pc.pending, w)
	// Random starting victim avoids convoying; then sweep the NUMA order.
	order := s.order[w]
	if len(order) == 0 {
		return nil
	}
	start := s.rng[w].Intn(len(order))
	for i := 0; i < len(order); i++ {
		v := order[(start+i)%len(order)]
		if t, ok := s.deques[v].Steal(); ok {
			countHit(s.pc.pending, v)
			s.pc.stolen.Inc(w)
			return t
		}
		countMiss(s.pc.pending, v)
	}
	return nil
}
