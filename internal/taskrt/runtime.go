package taskrt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/chaos"
	"taskgrain/internal/counters"
	"taskgrain/internal/topology"
	"taskgrain/internal/trace"
)

// Config holds runtime construction parameters. Use Options to build one.
type Config struct {
	// Workers is the number of worker threads (the paper's "OS threads",
	// one per core). Defaults to runtime.GOMAXPROCS(0).
	Workers int
	// NUMADomains is the number of NUMA domains workers are split over.
	// Defaults to 1.
	NUMADomains int
	// Policy selects the scheduling policy. Defaults to PriorityLocalFIFO.
	Policy PolicyKind
	// HighPriorityQueues is the number of high-priority dual queues
	// (PriorityLocalFIFO only). Defaults to 1.
	HighPriorityQueues int
	// StagedBatch is how many staged tasks a worker converts to pending per
	// refill (HPX's add-new batch). Defaults to 8.
	StagedBatch int
	// PanicHandler, when set, receives the value recovered from a task
	// phase that panicked. Panics are always contained to the task (the
	// worker survives and the task terminates); without a handler the
	// recovered value is dropped after being counted in
	// /threads/count/exceptions.
	PanicHandler func(task *Task, recovered any)
	// Tracer, when set, receives spawn/phase/suspend/resume events with
	// wall-clock timestamps relative to Start.
	Tracer *trace.Tracer
	// ParkAfter is the number of consecutive empty discovery sweeps before
	// a worker parks on its per-worker parker. Defaults to 64.
	ParkAfter int
	// ParkTimeout bounds one parked wait. With targeted wakeups the timeout
	// is a liveness backstop, not the normal wake path; a worker whose park
	// times out runs a single probe sweep and re-parks, doubling its wait up
	// to 16× ParkTimeout until a signal or work arrives. Defaults to 200µs.
	ParkTimeout time.Duration
	// Hooks, when set, is a chaos fault-injection surface consulted on the
	// wake, discovery, and steal paths (see internal/chaos). Nil — the
	// default, and the only sane production value — costs one pointer
	// comparison per site.
	Hooks chaos.Hooks
}

// Option mutates a Config during New.
type Option func(*Config)

// WithWorkers sets the worker count.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithNUMADomains sets the NUMA domain count.
func WithNUMADomains(d int) Option { return func(c *Config) { c.NUMADomains = d } }

// WithPolicy selects the scheduling policy.
func WithPolicy(p PolicyKind) Option { return func(c *Config) { c.Policy = p } }

// WithHighPriorityQueues sets the number of high-priority dual queues.
func WithHighPriorityQueues(k int) Option { return func(c *Config) { c.HighPriorityQueues = k } }

// WithStagedBatch sets the staged→pending conversion batch size.
func WithStagedBatch(n int) Option { return func(c *Config) { c.StagedBatch = n } }

// WithPanicHandler installs a handler for panics recovered from task phases.
func WithPanicHandler(h func(task *Task, recovered any)) Option {
	return func(c *Config) { c.PanicHandler = h }
}

// WithTracer attaches an execution tracer.
func WithTracer(tr *trace.Tracer) Option { return func(c *Config) { c.Tracer = tr } }

// WithParkAfter sets the empty-sweep threshold before a worker parks.
func WithParkAfter(n int) Option { return func(c *Config) { c.ParkAfter = n } }

// WithParkTimeout sets the base parked-wait bound (the liveness backstop).
func WithParkTimeout(d time.Duration) Option { return func(c *Config) { c.ParkTimeout = d } }

// WithChaosHooks arms deterministic fault injection on the scheduler's
// wake, discovery, and steal paths. Test-only: the hooks sleep inside the
// hot paths by design.
func WithChaosHooks(h chaos.Hooks) Option { return func(c *Config) { c.Hooks = h } }

// Runtime is a task scheduler instance. Create with New, then Start; spawn
// work with Spawn (or the future package's Async/Dataflow); wait for
// quiescence with WaitIdle; stop with Shutdown.
type Runtime struct {
	cfg    Config
	topo   *topology.Topology
	policy schedPolicy
	pc     *policyCounters
	reg    *counters.Registry

	nextID atomic.Uint64

	// inflight counts tasks in states Staged|Pending|Active|Suspended.
	inflight atomic.Int64
	idleMu   sync.Mutex
	idleCond *sync.Cond

	// loop is Eq. 1's pair: each worker's scheduler-loop time Σt_func (ns)
	// split into time inside task phases, Σt_exec, and the rest. A worker
	// adds an interval when it closes (see workerLoop), so the two are read
	// from the same slots and Σt_exec ≤ Σt_func holds in every reading.
	loop       *counters.Pair
	tasksRun   *counters.PerWorker
	phasesRun  *counters.PerWorker
	suspCount  *counters.PerWorker
	exceptions *counters.PerWorker
	cancels    *counters.PerWorker
	durHist    *counters.Histogram

	stop    atomic.Bool
	started atomic.Bool
	// base is the Start instant. Phase stamps, loop accounting and trace
	// events are monotonic offsets from it (see now).
	base time.Time
	wg   sync.WaitGroup

	// activeLimit is the worker-throttle level (Porterfield-style adaptive
	// throttling, paper Sec. V/VI): workers with index >= activeLimit pause
	// until the limit rises. Throttled time is excluded from t_func.
	activeLimit  atomic.Int32
	throttleMu   sync.Mutex
	throttleCond *sync.Cond

	// Per-worker park/wake (see parker.go). wakeOrder[h] lists the workers
	// to try waking for a task homed on h: h itself, then NUMA-local
	// siblings, then remote domains — the discovery order of Fig. 1.
	parkers      []parker
	wakeOrder    [][]int
	wakeRR       atomic.Uint64
	parked       atomic.Int64
	wakeSignals  *counters.PerWorker
	wakeups      *counters.PerWorker
	parkTimeouts *counters.PerWorker
}

// New builds a runtime from options. The runtime is not running until Start.
func New(opts ...Option) *Runtime {
	cfg := Config{
		Workers:            runtime.GOMAXPROCS(0),
		NUMADomains:        1,
		Policy:             PriorityLocalFIFO,
		HighPriorityQueues: 1,
		StagedBatch:        8,
		ParkAfter:          64,
		ParkTimeout:        200 * time.Microsecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Workers < 1 {
		panic(fmt.Sprintf("taskrt: Workers must be >= 1, got %d", cfg.Workers))
	}
	if cfg.NUMADomains < 1 {
		cfg.NUMADomains = 1
	}
	if cfg.StagedBatch < 1 {
		cfg.StagedBatch = 1
	}
	if cfg.ParkAfter < 1 {
		cfg.ParkAfter = 1
	}
	if cfg.ParkTimeout <= 0 {
		cfg.ParkTimeout = 200 * time.Microsecond
	}

	topo := topology.New(cfg.Workers, cfg.NUMADomains)
	rt := &Runtime{
		cfg:        cfg,
		topo:       topo,
		pc:         newPolicyCounters(topo.Workers()),
		reg:        counters.NewRegistry(),
		loop:       counters.NewPair(counters.TimeExecTotal, counters.TimeFuncTotal, topo.Workers()).WholeAsGauge(),
		tasksRun:   counters.NewPerWorker(counters.CountCumulative, topo.Workers()),
		phasesRun:  counters.NewPerWorker(counters.CountCumulativePhases, topo.Workers()),
		suspCount:  counters.NewPerWorker("/threads/count/suspended", topo.Workers()),
		exceptions: counters.NewPerWorker("/threads/count/exceptions", topo.Workers()),
		cancels:    counters.NewPerWorker("/threads/count/cancelled", topo.Workers()),
		durHist:    counters.NewPerWorkerHistogram("/threads/time/phase-duration-histogram", topo.Workers()),

		parkers:      make([]parker, topo.Workers()),
		wakeOrder:    make([][]int, topo.Workers()),
		wakeSignals:  counters.NewPerWorker(counters.CountWakeSignals, topo.Workers()),
		wakeups:      counters.NewPerWorker(counters.CountWakeups, topo.Workers()),
		parkTimeouts: counters.NewPerWorker(counters.CountParkTimeouts, topo.Workers()),
	}
	rt.loop.WithClock(rt.now)
	rt.idleCond = sync.NewCond(&rt.idleMu)
	rt.throttleCond = sync.NewCond(&rt.throttleMu)
	rt.activeLimit.Store(int32(topo.Workers()))
	for w := 0; w < topo.Workers(); w++ {
		rt.parkers[w].sema = make(chan struct{}, 1)
		rt.wakeOrder[w] = append([]int{w}, topo.VictimOrder(w)...)
	}

	switch cfg.Policy {
	case PriorityLocalFIFO:
		rt.policy = newPriorityLocal(topo, rt.pc, cfg.HighPriorityQueues, cfg.StagedBatch, cfg.Hooks)
	case StaticRoundRobin:
		rt.policy = newStaticRR(topo.Workers(), rt.pc)
	case WorkStealingLIFO:
		rt.policy = newStealLIFO(topo, rt.pc)
	default:
		panic(fmt.Sprintf("taskrt: unknown policy %v", cfg.Policy))
	}
	rt.registerCounters()
	return rt
}

// registerCounters exposes every metric of the study in the registry under
// HPX-compatible names.
func (rt *Runtime) registerCounters() {
	r := rt.reg
	r.MustRegister(rt.tasksRun)
	r.MustRegister(rt.phasesRun)
	r.MustRegister(rt.pc.stolen)
	r.MustRegister(rt.suspCount)
	r.MustRegister(rt.exceptions)
	r.MustRegister(rt.cancels)
	r.MustRegister(rt.durHist)
	r.MustRegister(rt.wakeSignals)
	r.MustRegister(rt.wakeups)
	r.MustRegister(rt.parkTimeouts)
	// Pairs and per-worker counters, with their instances addressable as
	// /threads{worker-thread#N}/...
	for _, p := range []*counters.Pair{rt.loop, rt.pc.pending, rt.pc.staged} {
		if err := r.RegisterPair(p); err != nil {
			panic(err)
		}
	}
	for _, pw := range []*counters.PerWorker{
		rt.tasksRun, rt.phasesRun,
		rt.pc.stolen, rt.wakeSignals, rt.wakeups, rt.parkTimeouts,
	} {
		if err := r.RegisterInstances(pw); err != nil {
			panic(err)
		}
	}
	r.MustRegister(counters.NewDerived(counters.IdleRate, func() float64 {
		e, f := rt.loop.Totals()
		return counters.IdleRateOf(float64(e), float64(f))
	}))
	// average registers Σt_exec (exec) or Σt_func−Σt_exec divided by a task
	// or phase count.
	average := func(name string, n *counters.PerWorker, exec bool) {
		r.MustRegister(counters.NewDerived(name, func() float64 {
			k := n.Total()
			if k == 0 {
				return 0
			}
			e, f := rt.loop.Totals()
			if exec {
				return float64(e) / float64(k)
			}
			return float64(f-e) / float64(k)
		}))
	}
	average(counters.TimeAverage, rt.tasksRun, true)
	average(counters.TimeAverageOverhead, rt.tasksRun, false)
	average(counters.TimeAveragePhase, rt.phasesRun, true)
	average(counters.TimeAveragePhaseOvh, rt.phasesRun, false)
}

// Counters returns the runtime's performance-counter registry.
func (rt *Runtime) Counters() *counters.Registry { return rt.reg }

// PhaseDurations returns the histogram of task-phase execution times — the
// distribution behind the /threads/time/average counter.
func (rt *Runtime) PhaseDurations() *counters.Histogram { return rt.durHist }

// Topology returns the runtime's worker/NUMA layout.
func (rt *Runtime) Topology() *topology.Topology { return rt.topo }

// Workers returns the number of worker threads.
func (rt *Runtime) Workers() int { return rt.topo.Workers() }

// Policy returns the scheduling policy the runtime was built with.
func (rt *Runtime) Policy() PolicyKind { return rt.cfg.Policy }

// LoopTotals returns Σt_exec and Σt_func in nanoseconds as one consistent
// pair, read once per worker: execNs is the time spent inside task phases,
// funcNs the total scheduler-loop time, including time spent searching for
// work and parked (this is what makes starvation visible in the idle-rate,
// Sec. IV-A). A busy worker adds its loop time as each phase ends; an idle
// one — from its first empty discovery sweep until it finds work, parked or
// not — counts live. Both readings are monotonic, execNs ≤ funcNs, and they
// lag a worker by at most its current phase and the dispatch around it.
// Differencing two readings gives Eq. 1 over the interval between them.
func (rt *Runtime) LoopTotals() (execNs, funcNs int64) { return rt.loop.Totals() }

// Inflight returns the number of tasks currently staged, pending, active, or
// suspended — the live backlog an external admission controller bounds. The
// reading is instantaneously consistent (one atomic load) but can of course
// change before the caller acts on it.
func (rt *Runtime) Inflight() int64 { return rt.inflight.Load() }

// TasksExecuted returns n_t, the cumulative number of terminated-or-running
// task first phases.
func (rt *Runtime) TasksExecuted() int64 { return rt.tasksRun.Total() }

// Start launches the worker threads. It may be called once.
func (rt *Runtime) Start() {
	if !rt.started.CompareAndSwap(false, true) {
		panic("taskrt: Start called twice")
	}
	rt.base = time.Now()
	for w := 0; w < rt.topo.Workers(); w++ {
		rt.wg.Add(1)
		go rt.workerLoop(w)
	}
}

// Shutdown stops the workers and waits for them to exit. Tasks still queued
// are abandoned; call WaitIdle first for a graceful drain. Safe to call once
// after Start.
func (rt *Runtime) Shutdown() {
	rt.stop.Store(true)
	rt.forceWakeAll()
	rt.throttleMu.Lock()
	rt.throttleCond.Broadcast()
	rt.throttleMu.Unlock()
	rt.wg.Wait()
}

// SetActiveWorkers throttles the runtime to n running workers (clamped to
// [1, Workers()]): workers with index >= n finish their current phase and
// pause; raising the limit resumes them. Work queued on a throttled
// worker's queues remains visible to stealing under the Priority
// Local-FIFO policy. This is the actuation point for Porterfield-style
// adaptive throttling (paper Sec. V) and the APEX policy engine (Sec. VI).
func (rt *Runtime) SetActiveWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > rt.topo.Workers() {
		n = rt.topo.Workers()
	}
	rt.activeLimit.Store(int32(n))
	rt.throttleMu.Lock()
	rt.throttleCond.Broadcast()
	rt.throttleMu.Unlock()
	// A changed limit needs parked workers to re-check promptly too: raised
	// so they can pick up work for the new capacity, lowered so the ones
	// past the limit move to the throttled wait.
	rt.forceWakeAll()
}

// ActiveWorkers returns the current throttle level.
func (rt *Runtime) ActiveWorkers() int { return int(rt.activeLimit.Load()) }

// Run is the convenience wrapper used by examples and benchmarks: Start,
// execute fn on the caller goroutine, WaitIdle, Shutdown, returning the
// elapsed wall time between Start and quiescence.
func (rt *Runtime) Run(fn func(rt *Runtime)) time.Duration {
	start := time.Now()
	rt.Start()
	fn(rt)
	rt.WaitIdle()
	elapsed := time.Since(start)
	rt.Shutdown()
	return elapsed
}

// Spawn creates a task in the staged state and hands it to the scheduler.
// fn runs exactly once (per phase). Options set priority and placement.
func (rt *Runtime) Spawn(fn func(*Context), opts ...SpawnOption) *Task {
	return rt.spawnInternal(fn, nil, opts...)
}

// spawnInternal is Spawn plus a termination callback wired before the task
// becomes visible to the scheduler (setting it afterwards would race).
func (rt *Runtime) spawnInternal(fn func(*Context), onDone func(*Task, any), opts ...SpawnOption) *Task {
	t := &Task{}
	t.init(rt, rt.nextID.Add(1), fn, onDone, opts)
	rt.inflight.Add(1)
	rt.trace(trace.Spawn, t.id, -1)
	home := rt.policy.pushStaged(t)
	rt.wakeOne(home)
	return t
}

// SpawnBatch creates one task per element of fns in a single scheduler
// transaction: the task records come from one slab allocation, IDs and the
// inflight count are reserved with one atomic add each, the staged pushes
// are batched per destination queue (MSQueue PushBatch — one CAS window and
// one node slab per queue instead of one per task), and at most one parked
// worker is woken for the whole batch; the rest pick the work up through
// normal discovery/stealing. opts apply to every task in the batch. Bulk
// spawn sites (parallel loops, stencil waves, taskbench step fan-out) use
// this to amortize the spawn-side cost that per-task Spawn pays at fine
// grain. Every returned handle stays valid on its own; a live handle keeps
// its whole batch's slab reachable.
func (rt *Runtime) SpawnBatch(fns []func(*Context), opts ...SpawnOption) []*Task {
	if len(fns) == 0 {
		return nil
	}
	_, tasks := newTaskSlab(len(fns))
	rt.spawnBatchInternal(tasks, fns, nil, opts...)
	return tasks
}

// newTaskSlab returns n zero task records carved from one allocation, and
// a handle to each.
func newTaskSlab(n int) ([]Task, []*Task) {
	slab := make([]Task, n)
	tasks := make([]*Task, n)
	for i := range slab {
		tasks[i] = &slab[i]
	}
	return slab, tasks
}

// spawnBatchInternal is SpawnBatch on caller-supplied zero records plus the
// pre-visibility termination callback, mirroring spawnInternal: it
// initializes tasks[i] to run fns[i] and hands the batch to the scheduler.
// fns must be non-empty and tasks as long as fns.
func (rt *Runtime) spawnBatchInternal(tasks []*Task, fns []func(*Context), onDone func(*Task, any), opts ...SpawnOption) {
	n := len(fns)
	base := rt.nextID.Add(uint64(n)) - uint64(n)
	for i, fn := range fns {
		tasks[i].init(rt, base+uint64(i)+1, fn, onDone, opts)
	}
	rt.inflight.Add(int64(n))
	if rt.cfg.Tracer != nil {
		for _, t := range tasks {
			rt.trace(trace.Spawn, t.id, -1)
		}
	}
	home := rt.policy.pushStagedBatch(tasks)
	rt.wakeOne(home)
}

// now reads the runtime's one clock: monotonic nanoseconds since Start.
func (rt *Runtime) now() int64 { return int64(time.Since(rt.base)) }

// trace records an event if a tracer is attached. The base is Start time;
// events before Start stamp small negative offsets, which Chrome accepts.
func (rt *Runtime) trace(kind trace.Kind, taskID uint64, worker int) {
	if rt.cfg.Tracer == nil {
		return
	}
	rt.cfg.Tracer.Record(trace.Event{
		Kind:   kind,
		TaskID: taskID,
		Worker: worker,
		TsNs:   rt.now(),
	})
}

// SpawnOption adjusts a task at spawn time.
type SpawnOption func(*Task)

// WithPriority sets the task's queue family.
func WithPriority(p Priority) SpawnOption { return func(t *Task) { t.priority = p } }

// WithHint pins the task's home queue to worker w. Hints are normalized to
// a valid worker index with a floored modulo, so any hint value — negative
// (other than the AnyWorker sentinel) or beyond Workers() — maps to a real
// queue instead of panicking the worker.
func WithHint(w int) SpawnOption { return func(t *Task) { t.hint = w } }

// WaitIdle blocks until no task is staged, pending, active, or suspended.
func (rt *Runtime) WaitIdle() {
	rt.idleMu.Lock()
	for rt.inflight.Load() != 0 {
		rt.idleCond.Wait()
	}
	rt.idleMu.Unlock()
}

// taskDone decrements inflight and wakes WaitIdle callers at zero.
func (rt *Runtime) taskDone() {
	if rt.inflight.Add(-1) == 0 {
		rt.idleMu.Lock()
		rt.idleCond.Broadcast()
		rt.idleMu.Unlock()
	}
}

// workerLoop is one OS-thread-like worker: discover work per the policy,
// run it, account its time.
func (rt *Runtime) workerLoop(w int) {
	defer rt.wg.Done()
	// mark is the end of the worker's accounted loop time: everything before
	// it is in rt.loop. While the worker finds work, the interval since mark
	// is added when it closes (see runTask). From its first empty sweep
	// until it finds work again it is idle and holds a rest interval open
	// in rt.loop instead, so readings see discovery and parked time grow
	// live; busy phases pay nothing for that.
	mark, idle := rt.now(), false
	defer func() {
		if idle {
			mark = rt.loop.CloseRest(w)
		}
		rt.loop.AddRest(w, rt.now()-mark)
	}()

	emptySweeps := 0
	parkWait := rt.cfg.ParkTimeout
	for {
		if rt.stop.Load() {
			return
		}
		if w >= int(rt.activeLimit.Load()) {
			if idle {
				mark, idle = rt.loop.CloseRest(w), false
			}
			mark = rt.throttledWait(w, mark)
			emptySweeps = 0
			parkWait = rt.cfg.ParkTimeout
			continue
		}
		if h := rt.cfg.Hooks; h != nil {
			h.PreProbe(w)
		}
		t := rt.policy.next(w)
		if t != nil {
			emptySweeps = 0
			parkWait = rt.cfg.ParkTimeout
			if idle {
				mark, idle = rt.loop.CloseRest(w), false
			}
			mark = rt.runTask(w, t, mark)
			continue
		}
		if !idle {
			now := rt.now()
			rt.loop.AddRest(w, now-mark)
			rt.loop.OpenRest(w, now)
			idle = true
		}
		emptySweeps++
		if emptySweeps < rt.cfg.ParkAfter {
			runtime.Gosched()
			continue
		}
		if rt.parkWorker(w, parkWait) {
			// A signal means fresh work (or a state change): restart the
			// full discovery spin at the base timeout.
			rt.wakeups.Inc(w)
			emptySweeps = 0
			parkWait = rt.cfg.ParkTimeout
		} else {
			// Timeout backstop: run a single probe sweep (the next() at the
			// top of the loop) and, if it finds nothing, re-park with an
			// exponentially longer wait. Holding emptySweeps at the
			// threshold is what keeps an idle runtime's queue counters
			// quiescent — the old scheme's full 64-sweep spin after every
			// timeout was the wake-storm this parker replaces.
			rt.parkTimeouts.Inc(w)
			emptySweeps = rt.cfg.ParkAfter
			if parkWait < rt.cfg.ParkTimeout<<4 {
				parkWait *= 2
			}
		}
	}
}

// runTask executes one phase of t on worker w, whose loop time is accounted
// up to mark, and returns the new mark: the phase's end stamp.
func (rt *Runtime) runTask(w int, t *Task, mark int64) int64 {
	if t.cancelled.Load() {
		// Lazy cancellation: discard at dispatch without running the phase.
		t.transition(Pending, Active)
		rt.cancels.Inc(w)
		rt.terminate(t, nil)
		return mark
	}
	t.transition(Pending, Active)
	firstPhase := t.phases.Add(1) == 1
	if firstPhase {
		rt.tasksRun.Inc(w)
	}
	rt.phasesRun.Inc(w)

	ctx := &t.ctx
	ctx.worker, ctx.suspended, ctx.cont = w, false, nil
	rt.trace(trace.PhaseBegin, t.id, w)
	start := rt.now()
	recovered := rt.runPhase(t, ctx)
	end := rt.now()
	durNs := end - start
	rt.loop.AddRest(w, start-mark)
	rt.loop.AddPart(w, durNs)
	rt.durHist.ObserveAt(w, durNs)
	rt.trace(trace.PhaseEnd, t.id, w)

	if recovered != nil {
		// A panic voids any suspension the phase had begun: the task
		// terminates, the worker survives (HPX likewise confines uncaught
		// exceptions to the failing thread).
		rt.exceptions.Inc(w)
		rt.terminate(t, recovered)
		return end
	}
	if ctx.suspended {
		// The phase ended in SuspendInto: install the continuation, move to
		// Suspended, and arrive at the resume gate. If the resumer already
		// fired (Resume raced ahead of phase end), requeue now.
		t.fn = ctx.cont
		t.hint = w // resume with locality: back to the suspending worker
		t.transition(Active, Suspended)
		rt.suspCount.Inc(w)
		rt.trace(trace.Suspend, t.id, w)
		if t.resumeGate.Add(1) == 2 {
			rt.resumeNow(t)
		}
		return end
	}
	rt.terminate(t, nil)
	return end
}

// terminate ends active task t and reports it done, with the value its
// phase panicked with, if any. It drops the task's closures: a handle can
// outlive the task (and pins its batch's slab), its closures need not.
func (rt *Runtime) terminate(t *Task, recovered any) {
	t.transition(Active, Terminated)
	t.fn, t.ctx.cont = nil, nil
	t.notifyDone(recovered)
	rt.taskDone()
}

// runPhase invokes the task phase, recovering any panic. It returns the
// recovered value, nil when the phase returned normally.
func (rt *Runtime) runPhase(t *Task, ctx *Context) (recovered any) {
	defer func() {
		if r := recover(); r != nil {
			recovered = r
			if rt.cfg.PanicHandler != nil {
				rt.cfg.PanicHandler(t, r)
			}
		}
	}()
	t.fn(ctx)
	return nil
}

// throttledWait pauses worker w until the throttle limit rises or the
// runtime stops, and returns the new mark. The paused interval is excluded
// from t_func so the idle-rate keeps describing the *active* workers.
func (rt *Runtime) throttledWait(w int, mark int64) int64 {
	rt.loop.AddRest(w, rt.now()-mark)
	rt.throttleMu.Lock()
	for w >= int(rt.activeLimit.Load()) && !rt.stop.Load() {
		rt.throttleCond.Wait()
	}
	rt.throttleMu.Unlock()
	return rt.now()
}

// resumeNow moves a suspended task back to a pending queue (Sec. I-B:
// suspended threads "will be placed back in the pending queue").
func (rt *Runtime) resumeNow(t *Task) {
	rt.trace(trace.Resume, t.id, -1)
	t.transition(Suspended, Pending)
	home := rt.policy.pushPending(t)
	rt.wakeOne(home)
}
