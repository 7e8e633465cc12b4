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

	// execTotal accumulates Σt_exec (ns) per worker; funcDone accumulates
	// completed loop time; loopStart holds each running worker's loop start
	// so Σt_func can be read while the runtime is live.
	execTotal *counters.PerWorker
	funcDone  *counters.PerWorker
	loopStart []atomic.Int64 // unix ns; 0 when worker not running
	// funcReported latches the highest Σt_func ever returned so concurrent
	// interval hand-offs between loopStart and funcDone can never make
	// FuncTotal appear to run backwards.
	funcReported atomic.Int64
	tasksRun     *counters.PerWorker
	phasesRun    *counters.PerWorker
	suspCount    *counters.PerWorker
	exceptions   *counters.PerWorker
	cancels      *counters.PerWorker
	durHist      *counters.Histogram

	stop      atomic.Bool
	started   atomic.Bool
	traceBase time.Time
	wg        sync.WaitGroup

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
		execTotal:  counters.NewPerWorker(counters.TimeExecTotal, topo.Workers()),
		funcDone:   counters.NewPerWorker("/threads/time/func-done", topo.Workers()),
		loopStart:  make([]atomic.Int64, topo.Workers()),
		tasksRun:   counters.NewPerWorker(counters.CountCumulative, topo.Workers()),
		phasesRun:  counters.NewPerWorker(counters.CountCumulativePhases, topo.Workers()),
		suspCount:  counters.NewPerWorker("/threads/count/suspended", topo.Workers()),
		exceptions: counters.NewPerWorker("/threads/count/exceptions", topo.Workers()),
		cancels:    counters.NewPerWorker("/threads/count/cancelled", topo.Workers()),
		durHist:    counters.NewHistogram("/threads/time/phase-duration-histogram"),

		parkers:      make([]parker, topo.Workers()),
		wakeOrder:    make([][]int, topo.Workers()),
		wakeSignals:  counters.NewPerWorker(counters.CountWakeSignals, topo.Workers()),
		wakeups:      counters.NewPerWorker(counters.CountWakeups, topo.Workers()),
		parkTimeouts: counters.NewPerWorker(counters.CountParkTimeouts, topo.Workers()),
	}
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
	r.MustRegister(rt.execTotal)
	r.MustRegister(rt.tasksRun)
	r.MustRegister(rt.phasesRun)
	r.MustRegister(rt.pc.pendingAcc)
	r.MustRegister(rt.pc.pendingMiss)
	r.MustRegister(rt.pc.stagedAcc)
	r.MustRegister(rt.pc.stagedMiss)
	r.MustRegister(rt.pc.stolen)
	r.MustRegister(rt.suspCount)
	r.MustRegister(rt.exceptions)
	r.MustRegister(rt.cancels)
	r.MustRegister(rt.durHist)
	r.MustRegister(rt.wakeSignals)
	r.MustRegister(rt.wakeups)
	r.MustRegister(rt.parkTimeouts)
	// Per-worker instances, addressable as /threads{worker-thread#N}/...
	for _, pw := range []*counters.PerWorker{
		rt.execTotal, rt.tasksRun, rt.phasesRun,
		rt.pc.pendingAcc, rt.pc.pendingMiss, rt.pc.stagedAcc, rt.pc.stagedMiss,
		rt.pc.stolen, rt.wakeSignals, rt.wakeups, rt.parkTimeouts,
	} {
		if err := r.RegisterInstances(pw); err != nil {
			panic(err)
		}
	}
	r.MustRegister(counters.NewDerived(counters.TimeFuncTotal, func() float64 {
		return float64(rt.FuncTotal())
	}))
	r.MustRegister(counters.NewDerived(counters.IdleRate, func() float64 {
		f := float64(rt.FuncTotal())
		if f <= 0 {
			return 0
		}
		ir := (f - float64(rt.execTotal.Total())) / f
		if ir < 0 {
			return 0
		}
		return ir
	}))
	r.MustRegister(counters.NewDerived(counters.TimeAverage, func() float64 {
		n := rt.tasksRun.Total()
		if n == 0 {
			return 0
		}
		return float64(rt.execTotal.Total()) / float64(n)
	}))
	r.MustRegister(counters.NewDerived(counters.TimeAverageOverhead, func() float64 {
		n := rt.tasksRun.Total()
		if n == 0 {
			return 0
		}
		return float64(rt.FuncTotal()-rt.execTotal.Total()) / float64(n)
	}))
	r.MustRegister(counters.NewDerived(counters.TimeAveragePhase, func() float64 {
		n := rt.phasesRun.Total()
		if n == 0 {
			return 0
		}
		return float64(rt.execTotal.Total()) / float64(n)
	}))
	r.MustRegister(counters.NewDerived(counters.TimeAveragePhaseOvh, func() float64 {
		n := rt.phasesRun.Total()
		if n == 0 {
			return 0
		}
		return float64(rt.FuncTotal()-rt.execTotal.Total()) / float64(n)
	}))
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

// FuncTotal returns Σt_func in nanoseconds: total scheduler-loop time over
// all workers, including time spent searching for work (this is what makes
// starvation visible in the idle-rate, Sec. IV-A). The reading is monotonic
// non-negative even while workers hand live intervals off to the completed
// total (throttling, shutdown).
func (rt *Runtime) FuncTotal() int64 {
	now := time.Now().UnixNano()
	var total int64
	for w := range rt.loopStart {
		// Per worker: read the completed total BEFORE the live loop start.
		// Workers hand an interval off in the opposite order (clear
		// loopStart, then add to funcDone), so an interval completing
		// between the two reads is counted at most once — a transient
		// undercount, never a double count. The now > s clamp discards a
		// loop start that lands after the captured instant, which would
		// otherwise contribute a negative delta.
		done := rt.funcDone.Worker(w)
		if s := rt.loopStart[w].Load(); s != 0 && now > s {
			done += now - s
		}
		total += done
	}
	// Latch the high-water mark: a hand-off between our two reads can make
	// this raw sum smaller than a previous reading that included the live
	// interval. Callers polling FuncTotal must never see it regress.
	for {
		prev := rt.funcReported.Load()
		if total <= prev {
			return prev
		}
		if rt.funcReported.CompareAndSwap(prev, total) {
			return total
		}
	}
}

// ExecTotal returns Σt_exec in nanoseconds: total time spent inside task
// phases over all workers.
func (rt *Runtime) ExecTotal() int64 { return rt.execTotal.Total() }

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
	rt.traceBase = time.Now()
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
func (rt *Runtime) spawnInternal(fn func(*Context), onDone func(*Task), opts ...SpawnOption) *Task {
	t := &Task{
		id:       rt.nextID.Add(1),
		fn:       fn,
		priority: PriorityNormal,
		hint:     AnyWorker,
		rt:       rt,
	}
	t.state.Store(int32(Staged))
	t.onDone = onDone
	for _, o := range opts {
		o(t)
	}
	rt.inflight.Add(1)
	rt.trace(trace.Spawn, t.id, -1)
	home := rt.policy.pushStaged(t)
	rt.wakeOne(home)
	return t
}

// SpawnBatch creates one task per element of fns in a single scheduler
// transaction: IDs and the inflight count are reserved with one atomic add
// each, the staged pushes are batched per destination queue (MSQueue
// PushBatch — one CAS window per queue instead of one per task), and at
// most one parked worker is woken for the whole batch; the rest pick the
// work up through normal discovery/stealing. opts apply to every task in
// the batch. Bulk spawn sites (parallel loops, stencil waves, taskbench
// step fan-out) use this to amortize the spawn-side cost that per-task
// Spawn pays at fine grain.
func (rt *Runtime) SpawnBatch(fns []func(*Context), opts ...SpawnOption) []*Task {
	return rt.spawnBatchInternal(fns, nil, opts...)
}

// spawnBatchInternal is SpawnBatch plus the pre-visibility termination
// callback, mirroring spawnInternal.
func (rt *Runtime) spawnBatchInternal(fns []func(*Context), onDone func(*Task), opts ...SpawnOption) []*Task {
	n := len(fns)
	if n == 0 {
		return nil
	}
	base := rt.nextID.Add(uint64(n)) - uint64(n)
	tasks := make([]*Task, n)
	for i, fn := range fns {
		t := &Task{
			id:       base + uint64(i) + 1,
			fn:       fn,
			priority: PriorityNormal,
			hint:     AnyWorker,
			rt:       rt,
		}
		t.state.Store(int32(Staged))
		t.onDone = onDone
		for _, o := range opts {
			o(t)
		}
		tasks[i] = t
	}
	rt.inflight.Add(int64(n))
	if rt.cfg.Tracer != nil {
		for _, t := range tasks {
			rt.trace(trace.Spawn, t.id, -1)
		}
	}
	home := rt.policy.pushStagedBatch(tasks)
	rt.wakeOne(home)
	return tasks
}

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
		TsNs:   time.Since(rt.traceBase).Nanoseconds(),
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
	rt.loopStart[w].Store(time.Now().UnixNano())
	defer func() {
		if start := rt.loopStart[w].Swap(0); start != 0 {
			rt.funcDone.Add(w, time.Now().UnixNano()-start)
		}
	}()

	emptySweeps := 0
	parkWait := rt.cfg.ParkTimeout
	for {
		if rt.stop.Load() {
			return
		}
		if w >= int(rt.activeLimit.Load()) {
			rt.throttledWait(w)
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
			rt.runTask(w, t)
			continue
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

// runTask executes one phase of t on worker w.
func (rt *Runtime) runTask(w int, t *Task) {
	if t.cancelled.Load() {
		// Lazy cancellation: discard at dispatch without running the phase.
		t.transition(Pending, Active)
		t.transition(Active, Terminated)
		rt.cancels.Inc(w)
		t.notifyDone()
		rt.taskDone()
		return
	}
	t.transition(Pending, Active)
	firstPhase := t.phases.Add(1) == 1
	if firstPhase {
		rt.tasksRun.Inc(w)
	}
	rt.phasesRun.Inc(w)

	ctx := Context{rt: rt, worker: w, task: t}
	rt.trace(trace.PhaseBegin, t.id, w)
	start := time.Now()
	panicked := rt.runPhase(t, &ctx)
	durNs := time.Since(start).Nanoseconds()
	rt.execTotal.Add(w, durNs)
	rt.durHist.Observe(durNs)
	rt.trace(trace.PhaseEnd, t.id, w)

	if panicked {
		// A panic voids any suspension the phase had begun: the task
		// terminates, the worker survives (HPX likewise confines uncaught
		// exceptions to the failing thread).
		rt.exceptions.Inc(w)
		t.transition(Active, Terminated)
		t.notifyDone()
		rt.taskDone()
		return
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
		return
	}
	t.transition(Active, Terminated)
	t.notifyDone()
	rt.taskDone()
}

// runPhase invokes the task phase, recovering any panic. It reports whether
// the phase panicked.
func (rt *Runtime) runPhase(t *Task, ctx *Context) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			if rt.cfg.PanicHandler != nil {
				rt.cfg.PanicHandler(t, r)
			}
		}
	}()
	t.fn(ctx)
	return false
}

// throttledWait pauses worker w until the throttle limit rises or the
// runtime stops. The paused interval is excluded from t_func so the
// idle-rate keeps describing the *active* workers.
func (rt *Runtime) throttledWait(w int) {
	if start := rt.loopStart[w].Swap(0); start != 0 {
		rt.funcDone.Add(w, time.Now().UnixNano()-start)
	}
	rt.throttleMu.Lock()
	for w >= int(rt.activeLimit.Load()) && !rt.stop.Load() {
		rt.throttleCond.Wait()
	}
	rt.throttleMu.Unlock()
	rt.loopStart[w].Store(time.Now().UnixNano())
}

// resumeNow moves a suspended task back to a pending queue (Sec. I-B:
// suspended threads "will be placed back in the pending queue").
func (rt *Runtime) resumeNow(t *Task) {
	rt.trace(trace.Resume, t.id, -1)
	t.transition(Suspended, Pending)
	home := rt.policy.pushPending(t)
	rt.wakeOne(home)
}
