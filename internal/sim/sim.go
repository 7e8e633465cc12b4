// Package sim is the discrete-event simulator that executes the scheduler's
// queueing structure in virtual time against a costmodel.Profile. It exists
// because the paper's strong-scaling experiments need 16–60 cores: the
// simulator reproduces the Priority Local-FIFO discovery order (Fig. 1), the
// dual staged/pending queues, stealing across NUMA domains, worker parking
// with periodic re-probing (the source of coarse-grain pending-queue
// traffic), and charges every operation the calibrated virtual cost — so all
// of the paper's counters and metrics can be regenerated for any core count
// on any host.
//
// The simulation is sequential and deterministic: events are processed in
// global virtual-time order; each queued task carries the virtual time at
// which it becomes visible, which keeps scheduling causal without an event
// per enqueue.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"taskgrain/internal/costmodel"
	"taskgrain/internal/counters"
	"taskgrain/internal/topology"
	"taskgrain/internal/trace"
)

var inf = math.Inf(1)

// Task is one schedulable unit in the simulation: an opaque ID the workload
// uses to track dependencies, the partition size driving its execution cost,
// and an optional placement hint.
type Task struct {
	ID     int64
	Points int
	Hint   int // home worker, or -1 for round-robin placement
}

// Workload generates the task DAG: Roots emits the initially-runnable tasks
// (charged to a sequential driver timeline, like the main thread building
// the future tree in HPX-Stencil); OnComplete emits tasks unlocked by t's
// completion (charged to the completing worker).
type Workload interface {
	Roots(emit func(Task))
	OnComplete(t Task, emit func(Task))
}

// Policy mirrors the native runtime's scheduling policies.
type Policy int

// Simulated scheduling policies.
const (
	PriorityLocalFIFO Policy = iota
	StaticRoundRobin
	WorkStealingLIFO
)

// Config parameterizes one simulated run.
type Config struct {
	// Profile supplies the cost model and the machine ceiling.
	Profile *costmodel.Profile
	// Cores is the number of worker threads to simulate (strong scaling
	// uses 1..Profile.Cores). Defaults to Profile.Cores.
	Cores int
	// NUMADomains overrides the derived domain count (0 = derive: cores
	// spread over the profile's domains proportionally).
	NUMADomains int
	// StagedBatch is the staged→pending conversion batch. Defaults to 8.
	StagedBatch int
	// Policy selects the queue discipline. Defaults to PriorityLocalFIFO.
	Policy Policy
	// Tracer, when set, receives spawn/phase/steal events stamped with
	// virtual time.
	Tracer *trace.Tracer
}

// Result carries every measurement of one simulated run.
type Result struct {
	Platform string
	Cores    int

	MakespanNs  float64 // virtual wall time until the last task completed
	ExecTotalNs float64 // Σ t_exec over all workers
	FuncTotalNs float64 // Σ t_func = cores · makespan
	Tasks       int64   // n_t

	PendingAccesses int64
	PendingMisses   int64
	StagedAccesses  int64
	StagedMisses    int64
	Stolen          int64

	PerWorkerExecNs []float64
	PerWorkerTasks  []int64

	// DurationHist is the distribution of simulated task execution times.
	DurationHist *counters.Histogram

	// EnergyJ estimates the run's energy from the profile's power model.
	EnergyJ float64
}

// IdleRate returns Eq. 1 over the whole run.
func (r *Result) IdleRate() float64 { return counters.IdleRateOf(r.ExecTotalNs, r.FuncTotalNs) }

// AvgTaskDurationNs returns Eq. 2 (t_d).
func (r *Result) AvgTaskDurationNs() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return r.ExecTotalNs / float64(r.Tasks)
}

// AvgTaskOverheadNs returns Eq. 3 (t_o).
func (r *Result) AvgTaskOverheadNs() float64 {
	if r.Tasks == 0 {
		return 0
	}
	return (r.FuncTotalNs - r.ExecTotalNs) / float64(r.Tasks)
}

// event kinds
const (
	evFind = iota
	evComplete
	evWake
)

type event struct {
	time   float64
	seq    int64
	kind   int
	worker int
	task   Task // evComplete only
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type worker struct {
	staged  fifo
	pending fifo

	parked    bool
	parkStart float64

	execNs float64
	tasks  int64
}

// sim is the run state.
type sim struct {
	cfg   Config
	prof  *costmodel.Profile
	topo  *topology.Topology
	wl    Workload
	cores int

	workers []worker
	local   [][]int // same-NUMA victims per worker
	remote  [][]int // cross-NUMA victims per worker

	events eventHeap
	seq    int64

	rrHome   uint64
	busy     int   // workers currently executing a task
	parkedN  int   // workers currently parked
	inflight int64 // tasks pushed but not completed
	done     int64
	lastDone float64

	// contended scheduling op costs (precomputed)
	spawnOp, convertOp, popOp, missOp float64
	stealLocalOp, stealRemoteOp       float64
	dispatchOp, wakeOp                float64

	pendingAcc, pendingMiss []int64
	stagedAcc, stagedMiss   []int64
	stolen                  []int64

	durHist *counters.Histogram
}

// Run executes the workload under cfg and returns the measurements.
func Run(cfg Config, wl Workload) (*Result, error) {
	prof := cfg.Profile
	if prof == nil {
		return nil, fmt.Errorf("sim: Config.Profile is required")
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	cores := cfg.Cores
	if cores == 0 {
		cores = prof.Cores
	}
	if cores < 1 || cores > prof.Cores {
		return nil, fmt.Errorf("sim: Cores = %d out of [1,%d] for %s", cores, prof.Cores, prof.Name)
	}
	domains := cfg.NUMADomains
	if domains == 0 {
		perDomain := (prof.Cores + prof.NUMADomains - 1) / prof.NUMADomains
		domains = (cores + perDomain - 1) / perDomain
	}
	batch := cfg.StagedBatch
	if batch < 1 {
		batch = 8
	}

	topo := topology.New(cores, domains)
	s := &sim{
		cfg: cfg, prof: prof, topo: topo, wl: wl, cores: cores,
		workers:     make([]worker, cores),
		local:       make([][]int, cores),
		remote:      make([][]int, cores),
		pendingAcc:  make([]int64, cores),
		pendingMiss: make([]int64, cores),
		stagedAcc:   make([]int64, cores),
		stagedMiss:  make([]int64, cores),
		stolen:      make([]int64, cores),
		durHist:     counters.NewHistogram("/threads/time/phase-duration-histogram"),
	}
	for w := 0; w < cores; w++ {
		for _, v := range topo.VictimOrder(w) {
			if topo.SameDomain(w, v) {
				s.local[w] = append(s.local[w], v)
			} else {
				s.remote[w] = append(s.remote[w], v)
			}
		}
	}
	c := prof.Contention(cores)
	s.spawnOp = prof.SpawnNs * c
	s.convertOp = prof.ConvertNs * c
	s.popOp = prof.PopNs * c
	s.missOp = prof.MissNs * c
	s.stealLocalOp = prof.StealLocalNs * c
	s.stealRemoteOp = prof.StealRemoteNs * c
	s.dispatchOp = prof.DispatchNs * c
	s.wakeOp = prof.WakeNs * c

	// Roots: the driver thread spawns the initial tasks sequentially.
	driver := 0.0
	wl.Roots(func(t Task) {
		driver += s.spawnOp
		s.pushStaged(t, driver)
	})

	// All workers start probing at t = 0.
	for w := 0; w < cores; w++ {
		s.schedule(event{time: 0, kind: evFind, worker: w})
	}

	if err := s.loop(batch); err != nil {
		return nil, err
	}
	return s.result(), nil
}

func (s *sim) schedule(e event) {
	s.seq++
	e.seq = s.seq
	heap.Push(&s.events, e)
}

// pushStaged places a freshly spawned task on its home staged queue (or
// pending deque under LIFO stealing) and schedules a wake at visibility.
func (s *sim) pushStaged(t Task, at float64) {
	home := t.Hint
	if home < 0 {
		home = int(s.rrHome % uint64(s.cores))
		s.rrHome++
	} else {
		home %= s.cores
	}
	switch s.cfg.Policy {
	case WorkStealingLIFO:
		s.workers[home].pending.push(entry{task: t, at: at})
	default:
		s.workers[home].staged.push(entry{task: t, at: at})
	}
	s.inflight++
	s.trace(trace.Spawn, t.ID, -1, at)
	s.schedule(event{time: at, kind: evWake, worker: home})
}

// trace records a virtual-time event if a tracer is attached.
func (s *sim) trace(kind trace.Kind, taskID int64, worker int, atNs float64) {
	if s.cfg.Tracer == nil {
		return
	}
	s.cfg.Tracer.Record(trace.Event{
		Kind:   kind,
		TaskID: uint64(taskID),
		Worker: worker,
		TsNs:   int64(atNs),
	})
}

func (s *sim) loop(batch int) error {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(event)
		switch e.kind {
		case evFind:
			s.handleFind(e, batch)
		case evComplete:
			s.handleComplete(e)
		case evWake:
			s.handleWake(e)
		}
		// If everything stalled while work remains invisible, advance time.
		if s.events.Len() == 0 && s.inflight > 0 {
			if at := s.earliestVisible(); at < inf {
				s.schedule(event{time: at, kind: evWake})
			} else {
				return fmt.Errorf("sim: deadlock with %d tasks in flight", s.inflight)
			}
		}
	}
	if s.inflight != 0 {
		return fmt.Errorf("sim: run ended with %d tasks in flight", s.inflight)
	}
	return nil
}

func (s *sim) earliestVisible() float64 {
	min := inf
	for w := range s.workers {
		if at := s.workers[w].staged.earliest(); at < min {
			min = at
		}
		if at := s.workers[w].pending.earliest(); at < min {
			min = at
		}
	}
	return min
}

func (s *sim) handleFind(e event, batch int) {
	w := e.worker
	t, now, found := s.findWork(w, e.time, batch)
	if !found {
		s.workers[w].parked = true
		s.workers[w].parkStart = now
		s.parkedN++
		return
	}
	now += s.dispatchOp
	s.trace(trace.PhaseBegin, t.ID, w, now)
	s.busy++
	dur := s.prof.TaskExecNs(t.Points, s.busy, s.cores)
	s.workers[w].execNs += dur
	s.workers[w].tasks++
	s.durHist.Observe(int64(dur))
	s.schedule(event{time: now + dur, kind: evComplete, worker: w, task: t})
}

func (s *sim) handleComplete(e event) {
	w := e.worker
	s.trace(trace.PhaseEnd, e.task.ID, w, e.time)
	s.busy--
	s.inflight--
	s.done++
	if e.time > s.lastDone {
		s.lastDone = e.time
	}
	clock := e.time
	s.wl.OnComplete(e.task, func(t Task) {
		clock += s.spawnOp
		s.pushStaged(t, clock)
	})
	s.schedule(event{time: clock, kind: evFind, worker: w})
}

// handleWake revives the parked worker with the earliest park time, charging
// the idle re-probe sweeps it performed while parked.
func (s *sim) handleWake(e event) {
	if s.parkedN == 0 {
		return // everyone is active; the task will be found by a live sweep
	}
	best := -1
	for w := range s.workers {
		if s.workers[w].parked && (best == -1 || s.workers[w].parkStart < s.workers[best].parkStart) {
			best = w
		}
	}
	if best == -1 {
		return // everyone is active; the task will be found by a live sweep
	}
	wk := &s.workers[best]
	wakeAt := math.Max(e.time, wk.parkStart)
	s.chargeIdleSweeps(best, wakeAt-wk.parkStart)
	wk.parked = false
	s.parkedN--
	s.schedule(event{time: wakeAt + s.wakeOp, kind: evFind, worker: best})
}

// findWork performs one discovery sweep for worker w starting at virtual
// time `now`, charging probe costs, returning the claimed task and the time
// after the successful claim.
func (s *sim) findWork(w int, now float64, batch int) (Task, float64, bool) {
	switch s.cfg.Policy {
	case StaticRoundRobin:
		return s.findStatic(w, now, batch)
	case WorkStealingLIFO:
		return s.findLIFO(w, now)
	default:
		return s.findPriorityLocal(w, now, batch)
	}
}

func (s *sim) findPriorityLocal(w int, now float64, batch int) (Task, float64, bool) {
	wk := &s.workers[w]
	// 1. Local pending.
	s.pendingAcc[w]++
	if t, ok := wk.pending.popFront(now); ok {
		return t, now + s.popOp, true
	}
	s.pendingMiss[w]++
	now += s.missOp
	// 2. Local staged: convert a batch, then take from pending.
	moved := false
	for i := 0; i < batch; i++ {
		s.stagedAcc[w]++
		t, ok := wk.staged.popFront(now)
		if !ok {
			s.stagedMiss[w]++
			now += s.missOp
			break
		}
		now += s.convertOp
		wk.pending.push(entry{task: t, at: now})
		moved = true
	}
	if moved {
		s.pendingAcc[w]++
		if t, ok := wk.pending.popFront(now); ok {
			return t, now + s.popOp, true
		}
		s.pendingMiss[w]++
		now += s.missOp
	}
	// 3–4. Same-NUMA staged, then pending. 5–6. Remote NUMA.
	if t, now2, ok := s.stealSweep(w, now, s.local[w], s.stealLocalOp); ok {
		return t, now2, true
	} else {
		now = now2
	}
	if t, now2, ok := s.stealSweep(w, now, s.remote[w], s.stealRemoteOp); ok {
		return t, now2, true
	} else {
		now = now2
	}
	return Task{}, now, false
}

func (s *sim) stealSweep(w int, now float64, victims []int, stealOp float64) (Task, float64, bool) {
	for _, v := range victims {
		s.stagedAcc[v]++
		if t, ok := s.workers[v].staged.popFront(now); ok {
			s.stolen[w]++
			s.trace(trace.Steal, t.ID, w, now)
			return t, now + s.convertOp + stealOp, true
		}
		s.stagedMiss[v]++
		now += s.missOp
	}
	for _, v := range victims {
		s.pendingAcc[v]++
		if t, ok := s.workers[v].pending.popFront(now); ok {
			s.stolen[w]++
			s.trace(trace.Steal, t.ID, w, now)
			return t, now + s.popOp + stealOp, true
		}
		s.pendingMiss[v]++
		now += s.missOp
	}
	return Task{}, now, false
}

func (s *sim) findStatic(w int, now float64, batch int) (Task, float64, bool) {
	wk := &s.workers[w]
	s.pendingAcc[w]++
	if t, ok := wk.pending.popFront(now); ok {
		return t, now + s.popOp, true
	}
	s.pendingMiss[w]++
	now += s.missOp
	s.stagedAcc[w]++
	if t, ok := wk.staged.popFront(now); ok {
		return t, now + s.convertOp + s.popOp, true
	}
	s.stagedMiss[w]++
	now += s.missOp
	return Task{}, now, false
}

func (s *sim) findLIFO(w int, now float64) (Task, float64, bool) {
	s.pendingAcc[w]++
	if t, ok := s.workers[w].pending.popBack(now); ok {
		return t, now + s.popOp, true
	}
	s.pendingMiss[w]++
	now += s.missOp
	for _, v := range s.local[w] {
		s.pendingAcc[v]++
		if t, ok := s.workers[v].pending.popFront(now); ok {
			s.stolen[w]++
			return t, now + s.popOp + s.stealLocalOp, true
		}
		s.pendingMiss[v]++
		now += s.missOp
	}
	for _, v := range s.remote[w] {
		s.pendingAcc[v]++
		if t, ok := s.workers[v].pending.popFront(now); ok {
			s.stolen[w]++
			return t, now + s.popOp + s.stealRemoteOp, true
		}
		s.pendingMiss[v]++
		now += s.missOp
	}
	return Task{}, now, false
}

// chargeIdleSweeps accounts the periodic re-probe sweeps a parked worker
// performs, with exponential backoff from BackoffNs to BackoffMaxNs. Each
// sweep probes the worker's own dual queue plus every victim's, so
// starvation at coarse granularity shows up as pending-queue traffic
// exactly as in Fig. 9/10 of the paper.
func (s *sim) chargeIdleSweeps(w int, gap float64) {
	if gap <= 0 {
		return
	}
	sweeps := 0.0
	t, b := 0.0, s.prof.BackoffNs
	for t+b <= gap && b < s.prof.BackoffMaxNs {
		t += b
		sweeps++
		b *= 2
	}
	if rest := gap - t; rest > 0 && s.prof.BackoffMaxNs > 0 {
		sweeps += math.Floor(rest / s.prof.BackoffMaxNs)
	}
	if sweeps <= 0 {
		return
	}
	n := int64(sweeps)
	s.pendingAcc[w] += n
	s.pendingMiss[w] += n
	s.stagedAcc[w] += n
	s.stagedMiss[w] += n
	for _, v := range s.local[w] {
		s.pendingAcc[v] += n
		s.pendingMiss[v] += n
		s.stagedAcc[v] += n
		s.stagedMiss[v] += n
	}
	for _, v := range s.remote[w] {
		s.pendingAcc[v] += n
		s.pendingMiss[v] += n
		s.stagedAcc[v] += n
		s.stagedMiss[v] += n
	}
}

func (s *sim) result() *Result {
	r := &Result{
		Platform:        s.prof.Name,
		Cores:           s.cores,
		MakespanNs:      s.lastDone,
		Tasks:           s.done,
		PerWorkerExecNs: make([]float64, s.cores),
		PerWorkerTasks:  make([]int64, s.cores),
	}
	// Workers still parked at the end idled until the makespan; charge
	// their final starvation sweeps.
	for w := range s.workers {
		if s.workers[w].parked && s.lastDone > s.workers[w].parkStart {
			s.chargeIdleSweeps(w, s.lastDone-s.workers[w].parkStart)
		}
	}
	for w := range s.workers {
		r.ExecTotalNs += s.workers[w].execNs
		r.PerWorkerExecNs[w] = s.workers[w].execNs
		r.PerWorkerTasks[w] = s.workers[w].tasks
		r.PendingAccesses += s.pendingAcc[w]
		r.PendingMisses += s.pendingMiss[w]
		r.StagedAccesses += s.stagedAcc[w]
		r.StagedMisses += s.stagedMiss[w]
		r.Stolen += s.stolen[w]
	}
	r.FuncTotalNs = float64(s.cores) * r.MakespanNs
	r.DurationHist = s.durHist
	r.EnergyJ = s.prof.EnergyJoules(r.MakespanNs, r.ExecTotalNs, s.cores)
	return r
}
