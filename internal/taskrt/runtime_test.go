package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"taskgrain/internal/counters"
)

// runAll spawns n trivial tasks on a fresh runtime and drains it.
func runAll(t *testing.T, rt *Runtime, n int) *atomic.Int64 {
	t.Helper()
	var ran atomic.Int64
	rt.Run(func(rt *Runtime) {
		for i := 0; i < n; i++ {
			rt.Spawn(func(*Context) { ran.Add(1) })
		}
	})
	if got := ran.Load(); got != int64(n) {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
	return &ran
}

func TestRunAllTasksSingleWorker(t *testing.T) {
	rt := New(WithWorkers(1))
	runAll(t, rt, 500)
	if rt.TasksExecuted() != 500 {
		t.Fatalf("cumulative = %d", rt.TasksExecuted())
	}
}

func TestRunAllTasksMultiWorker(t *testing.T) {
	rt := New(WithWorkers(4), WithNUMADomains(2))
	runAll(t, rt, 2000)
	if rt.TasksExecuted() != 2000 {
		t.Fatalf("cumulative = %d", rt.TasksExecuted())
	}
}

func TestAllPoliciesComplete(t *testing.T) {
	for _, pol := range []PolicyKind{PriorityLocalFIFO, StaticRoundRobin, WorkStealingLIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			rt := New(WithWorkers(3), WithPolicy(pol))
			runAll(t, rt, 1000)
		})
	}
}

func TestNestedSpawns(t *testing.T) {
	rt := New(WithWorkers(2))
	var leaves atomic.Int64
	rt.Run(func(rt *Runtime) {
		// Three-level task tree: 4 * 4 * 4 leaves.
		for i := 0; i < 4; i++ {
			rt.Spawn(func(c *Context) {
				for j := 0; j < 4; j++ {
					c.Spawn(func(c *Context) {
						for k := 0; k < 4; k++ {
							c.Spawn(func(*Context) { leaves.Add(1) })
						}
					})
				}
			})
		}
	})
	if leaves.Load() != 64 {
		t.Fatalf("leaves = %d, want 64", leaves.Load())
	}
}

func TestPriorityOrderSingleWorker(t *testing.T) {
	// With one worker and tasks pre-queued before Start, high-priority tasks
	// must run before normal, and low-priority strictly last.
	rt := New(WithWorkers(1))
	var order []string
	var mu sync.Mutex
	record := func(tag string) func(*Context) {
		return func(*Context) {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	rt.Spawn(record("low"), WithPriority(PriorityLow))
	rt.Spawn(record("normal1"))
	rt.Spawn(record("normal2"))
	rt.Spawn(record("high"), WithPriority(PriorityHigh))
	rt.Start()
	rt.WaitIdle()
	rt.Shutdown()
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	if order[0] != "high" {
		t.Errorf("first = %q, want high (order %v)", order[0], order)
	}
	if order[3] != "low" {
		t.Errorf("last = %q, want low (order %v)", order[3], order)
	}
}

func TestHintHonoredByStaticRR(t *testing.T) {
	rt := New(WithWorkers(3), WithPolicy(StaticRoundRobin))
	workers := make([]atomic.Int64, 3)
	rt.Run(func(rt *Runtime) {
		for i := 0; i < 90; i++ {
			rt.Spawn(func(c *Context) { workers[c.Worker()].Add(1) }, WithHint(1))
		}
	})
	if got := workers[1].Load(); got != 90 {
		t.Fatalf("worker 1 ran %d, want 90 (no stealing under static RR)", got)
	}
}

func TestStealingMovesWork(t *testing.T) {
	// Plug worker 0 with a task that blocks until every hinted task has run,
	// so the hinted tasks can only complete by being stolen.
	rt := New(WithWorkers(4))
	release := make(chan struct{})
	var wg sync.WaitGroup
	const hinted = 100
	wg.Add(hinted)
	rt.Start()
	plugRunning := make(chan struct{})
	rt.Spawn(func(*Context) {
		close(plugRunning)
		<-release
	}, WithHint(0))
	<-plugRunning
	for i := 0; i < hinted; i++ {
		rt.Spawn(func(*Context) { wg.Done() }, WithHint(0))
	}
	wg.Wait()
	close(release)
	rt.WaitIdle()
	rt.Shutdown()
	stolen, ok := rt.Counters().Value(counters.CountStolen)
	if !ok {
		t.Fatal("stolen counter missing")
	}
	// Either the plug itself was stolen off worker 0's queue, or worker 0
	// ran it and every hinted task had to be stolen; both imply steals.
	if stolen < 1 {
		t.Fatalf("stolen = %v, want >= 1 (worker 0 was plugged)", stolen)
	}
	if rt.TasksExecuted() != hinted+1 {
		t.Fatalf("cumulative = %d", rt.TasksExecuted())
	}
}

func TestSuspendResume(t *testing.T) {
	rt := New(WithWorkers(2))
	var resumer *Resumer
	var gotSecondPhase atomic.Bool
	var task *Task
	ready := make(chan struct{})
	rt.Start()
	task = rt.Spawn(func(c *Context) {
		resumer = c.SuspendInto(func(*Context) { gotSecondPhase.Store(true) })
		close(ready)
	})
	<-ready
	resumer.Resume()
	rt.WaitIdle()
	rt.Shutdown()
	if !gotSecondPhase.Load() {
		t.Fatal("continuation never ran")
	}
	if task.State() != Terminated {
		t.Fatalf("state = %v", task.State())
	}
	if task.Phases() != 2 {
		t.Fatalf("phases = %d, want 2", task.Phases())
	}
}

func TestResumeBeforePhaseEnd(t *testing.T) {
	// Resume fired from inside the suspending phase itself: the gate must
	// defer the requeue to phase end; the continuation still runs.
	rt := New(WithWorkers(1))
	var ran atomic.Bool
	rt.Run(func(rt *Runtime) {
		rt.Spawn(func(c *Context) {
			r := c.SuspendInto(func(*Context) { ran.Store(true) })
			r.Resume() // before the phase returns
		})
	})
	if !ran.Load() {
		t.Fatal("continuation lost when Resume raced phase end")
	}
}

func TestDoubleResumePanics(t *testing.T) {
	rt := New(WithWorkers(1))
	done := make(chan struct{})
	var r *Resumer
	rt.Start()
	rt.Spawn(func(c *Context) {
		if r == nil {
			r = c.SuspendInto(func(*Context) {})
			close(done)
		}
	})
	<-done
	r.Resume()
	rt.WaitIdle()
	rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("second Resume must panic")
		}
	}()
	r.Resume()
}

func TestSuspendIntoTwicePanics(t *testing.T) {
	rt := New(WithWorkers(1))
	panicked := make(chan bool, 1)
	rt.Start()
	rt.Spawn(func(c *Context) {
		defer func() {
			panicked <- recover() != nil
			// Leave the context un-suspended so runTask terminates the task.
			c.suspended = false
		}()
		c.SuspendInto(func(*Context) {})
		c.SuspendInto(func(*Context) {})
	})
	if !<-panicked {
		t.Fatal("second SuspendInto must panic")
	}
	rt.Shutdown()
}

func TestPhaseCountersAccounting(t *testing.T) {
	rt := New(WithWorkers(2))
	const tasks, suspensions = 50, 50
	rt.Start()
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := 0; i < tasks; i++ {
		rt.Spawn(func(c *Context) {
			r := c.SuspendInto(func(*Context) { wg.Done() })
			r.Resume()
		})
	}
	wg.Wait()
	rt.WaitIdle()
	rt.Shutdown()
	reg := rt.Counters()
	nt, _ := reg.Value(counters.CountCumulative)
	phases, _ := reg.Value(counters.CountCumulativePhases)
	susp, _ := reg.Value("/threads/count/suspended")
	if int(nt) != tasks {
		t.Errorf("cumulative = %v, want %d", nt, tasks)
	}
	if int(susp) != suspensions {
		t.Errorf("suspended = %v, want %d", susp, suspensions)
	}
	if int(phases) != tasks+suspensions {
		t.Errorf("phases = %v, want %d", phases, tasks+suspensions)
	}
}

func TestCounterInvariants(t *testing.T) {
	rt := New(WithWorkers(2))
	runAll(t, rt, 300)
	reg := rt.Counters()
	exec, _ := reg.Value(counters.TimeExecTotal)
	fn, _ := reg.Value(counters.TimeFuncTotal)
	idle, _ := reg.Value(counters.IdleRate)
	if exec < 0 || fn < exec {
		t.Errorf("time totals inconsistent: exec=%v func=%v", exec, fn)
	}
	if idle < 0 || idle > 1 {
		t.Errorf("idle-rate = %v out of [0,1]", idle)
	}
	pa, _ := reg.Value(counters.PendingAccesses)
	pm, _ := reg.Value(counters.PendingMisses)
	if pm > pa {
		t.Errorf("pending misses %v > accesses %v", pm, pa)
	}
	sa, _ := reg.Value(counters.StagedAccesses)
	sm, _ := reg.Value(counters.StagedMisses)
	if sm > sa {
		t.Errorf("staged misses %v > accesses %v", sm, sa)
	}
	td, _ := reg.Value(counters.TimeAverage)
	to, _ := reg.Value(counters.TimeAverageOverhead)
	if td <= 0 {
		t.Errorf("average task duration = %v", td)
	}
	if to < 0 {
		t.Errorf("average task overhead = %v", to)
	}
}

func TestWaitIdleNoTasks(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Start()
	rt.WaitIdle() // must not block
	rt.Shutdown()
}

func TestStartTwicePanics(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Start()
	defer rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start must panic")
		}
	}()
	rt.Start()
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Workers=0 must panic")
		}
	}()
	New(WithWorkers(0))
}

func TestConfigDefaultsClamped(t *testing.T) {
	rt := New(WithWorkers(2), WithNUMADomains(0), WithStagedBatch(0), WithHighPriorityQueues(0))
	runAll(t, rt, 50)
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, k := range []PolicyKind{PriorityLocalFIFO, StaticRoundRobin, WorkStealingLIFO} {
		got, err := ParsePolicy(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy must error")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		Staged: "staged", Pending: "pending", Active: "active",
		Suspended: "suspended", Terminated: "terminated", State(99): "State(99)",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
	if PriorityHigh.String() != "high" || PriorityNormal.String() != "normal" ||
		PriorityLow.String() != "low" || Priority(9).String() != "Priority(9)" {
		t.Error("priority strings wrong")
	}
}

func TestLegalTransitionTable(t *testing.T) {
	legal := [][2]State{
		{Staged, Pending}, {Pending, Active},
		{Active, Suspended}, {Active, Terminated}, {Suspended, Pending},
	}
	isLegal := func(a, b State) bool {
		for _, e := range legal {
			if e[0] == a && e[1] == b {
				return true
			}
		}
		return false
	}
	all := []State{Staged, Pending, Active, Suspended, Terminated}
	for _, a := range all {
		for _, b := range all {
			if got := legalTransition(a, b); got != isLegal(a, b) {
				t.Errorf("legalTransition(%v,%v) = %v", a, b, got)
			}
		}
	}
}

// Property: for any mix of worker counts, domain counts and task counts,
// every spawned task runs exactly once and the runtime drains.
func TestQuickAllTasksRunOnce(t *testing.T) {
	f := func(w8, d8 uint8, n16 uint16, polRaw uint8) bool {
		workers := int(w8%4) + 1
		domains := int(d8%2) + 1
		n := int(n16 % 300)
		pol := PolicyKind(polRaw % 3)
		rt := New(WithWorkers(workers), WithNUMADomains(domains), WithPolicy(pol))
		var runs atomic.Int64
		rt.Run(func(rt *Runtime) {
			for i := 0; i < n; i++ {
				rt.Spawn(func(*Context) { runs.Add(1) })
			}
		})
		return runs.Load() == int64(n) && rt.TasksExecuted() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSpawnRunToCompletion(b *testing.B) {
	rt := New(WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Spawn(func(*Context) {})
	}
	rt.WaitIdle()
}

func BenchmarkSpawnBatchRunToCompletion(b *testing.B) {
	rt := New(WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	const batch = 256
	fns := make([]func(*Context), batch)
	for i := range fns {
		fns[i] = func(*Context) {}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		if rem := b.N - done; rem < batch {
			rt.SpawnBatch(fns[:rem])
		} else {
			rt.SpawnBatch(fns)
		}
	}
	rt.WaitIdle()
}

func TestPanicContainment(t *testing.T) {
	var handled atomic.Int64
	rt := New(WithWorkers(2), WithPanicHandler(func(task *Task, recovered any) {
		if recovered == nil || task == nil {
			t.Error("handler got nil")
		}
		handled.Add(1)
	}))
	var ran atomic.Int64
	rt.Run(func(rt *Runtime) {
		for i := 0; i < 20; i++ {
			i := i
			rt.Spawn(func(*Context) {
				if i%4 == 0 {
					panic("boom")
				}
				ran.Add(1)
			})
		}
	})
	if ran.Load() != 15 {
		t.Fatalf("survivors ran %d, want 15", ran.Load())
	}
	if handled.Load() != 5 {
		t.Fatalf("handled %d panics, want 5", handled.Load())
	}
	exc, _ := rt.Counters().Value("/threads/count/exceptions")
	if exc != 5 {
		t.Fatalf("exceptions counter = %v, want 5", exc)
	}
	if rt.TasksExecuted() != 20 {
		t.Fatalf("cumulative = %d, want 20 (panicked tasks still count)", rt.TasksExecuted())
	}
}

func TestPanicWithoutHandlerStillContained(t *testing.T) {
	rt := New(WithWorkers(1))
	var after atomic.Bool
	rt.Run(func(rt *Runtime) {
		rt.Spawn(func(*Context) { panic("unhandled") })
		rt.Spawn(func(*Context) { after.Store(true) })
	})
	if !after.Load() {
		t.Fatal("worker did not survive the panic")
	}
}

func TestPanicVoidsSuspension(t *testing.T) {
	rt := New(WithWorkers(1))
	var contRan atomic.Bool
	var task *Task
	rt.Run(func(rt *Runtime) {
		task = rt.Spawn(func(c *Context) {
			c.SuspendInto(func(*Context) { contRan.Store(true) })
			panic("after suspend")
		})
	})
	if task.State() != Terminated {
		t.Fatalf("state = %v, want terminated", task.State())
	}
	if contRan.Load() {
		t.Fatal("continuation of a panicked phase must not run")
	}
}

func TestYield(t *testing.T) {
	rt := New(WithWorkers(1))
	var order []string
	var mu sync.Mutex
	rec := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	var task *Task
	rt.Start()
	task = rt.Spawn(func(c *Context) {
		rec("phase1")
		c.Yield(func(*Context) { rec("phase2") })
	})
	rt.Spawn(func(*Context) { rec("other") })
	rt.WaitIdle()
	rt.Shutdown()
	if task.Phases() != 2 {
		t.Fatalf("phases = %d, want 2", task.Phases())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != "phase1" {
		t.Fatalf("order = %v", order)
	}
}

func TestThrottleClampsAndReports(t *testing.T) {
	rt := New(WithWorkers(4))
	if rt.ActiveWorkers() != 4 {
		t.Fatalf("initial active = %d", rt.ActiveWorkers())
	}
	rt.SetActiveWorkers(0)
	if rt.ActiveWorkers() != 1 {
		t.Fatalf("low clamp = %d", rt.ActiveWorkers())
	}
	rt.SetActiveWorkers(99)
	if rt.ActiveWorkers() != 4 {
		t.Fatalf("high clamp = %d", rt.ActiveWorkers())
	}
}

func TestThrottledWorkersDoNotRun(t *testing.T) {
	rt := New(WithWorkers(4))
	rt.SetActiveWorkers(1) // throttle before start: only worker 0 runs
	rt.Start()
	defer rt.Shutdown()
	seen := make([]atomic.Int64, 4)
	var wg sync.WaitGroup
	const n = 200
	wg.Add(n)
	for i := 0; i < n; i++ {
		rt.Spawn(func(c *Context) {
			seen[c.Worker()].Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	if seen[0].Load() != n {
		t.Fatalf("worker 0 ran %d, want all %d", seen[0].Load(), n)
	}
	for w := 1; w < 4; w++ {
		if seen[w].Load() != 0 {
			t.Fatalf("throttled worker %d ran %d tasks", w, seen[w].Load())
		}
	}
}

func TestUnthrottleResumesWorkers(t *testing.T) {
	rt := New(WithWorkers(3))
	rt.SetActiveWorkers(1)
	rt.Start()
	defer rt.Shutdown()
	// Plug worker 0 so the remaining work can only run if throttling lifts.
	release := make(chan struct{})
	running := make(chan struct{})
	rt.Spawn(func(*Context) {
		close(running)
		<-release
	}, WithHint(0))
	<-running
	var wg sync.WaitGroup
	const n = 50
	wg.Add(n)
	for i := 0; i < n; i++ {
		rt.Spawn(func(*Context) { wg.Done() })
	}
	rt.SetActiveWorkers(3)
	wg.Wait() // only reachable if throttled workers resumed
	close(release)
	rt.WaitIdle()
}

func TestThrottledTimeExcludedFromFunc(t *testing.T) {
	rt := New(WithWorkers(4))
	rt.SetActiveWorkers(1)
	rt.Start()
	runSome := func() {
		var wg sync.WaitGroup
		wg.Add(10)
		for i := 0; i < 10; i++ {
			rt.Spawn(func(*Context) { wg.Done() })
		}
		wg.Wait()
	}
	runSome()
	// Let throttled workers sit for a while: their paused time must not
	// accrue to t_func.
	_, timeBefore := rt.LoopTotals()
	waitABit()
	_, timeAfter := rt.LoopTotals()
	grown := timeAfter - timeBefore
	// Only worker 0 accrues (~the sleep duration); 4 unthrottled workers
	// would accrue ~4x. Allow generous scheduling slop.
	if grown > int64(2*throttleProbeSleep/time.Nanosecond) {
		t.Fatalf("func total grew %dns while 3 of 4 workers throttled", grown)
	}
	rt.Shutdown()
}

const throttleProbeSleep = 50 * time.Millisecond

func waitABit() { time.Sleep(throttleProbeSleep) }

func TestMultipleHighPriorityQueues(t *testing.T) {
	rt := New(WithWorkers(4), WithHighPriorityQueues(2))
	var ran atomic.Int64
	rt.Run(func(rt *Runtime) {
		for i := 0; i < 100; i++ {
			rt.Spawn(func(*Context) { ran.Add(1) }, WithPriority(PriorityHigh))
			rt.Spawn(func(*Context) { ran.Add(1) })
			rt.Spawn(func(*Context) { ran.Add(1) }, WithPriority(PriorityLow))
		}
	})
	if ran.Load() != 300 {
		t.Fatalf("ran %d, want 300", ran.Load())
	}
}

func TestLowPrioritySuspendResume(t *testing.T) {
	// A low-priority task that suspends must resume through the low queue.
	rt := New(WithWorkers(1))
	rt.Start()
	defer rt.Shutdown()
	done := make(chan struct{})
	rt.Spawn(func(c *Context) {
		r := c.SuspendInto(func(*Context) { close(done) })
		r.Resume()
	}, WithPriority(PriorityLow))
	<-done
	rt.WaitIdle()
}

func TestFuncTotalGrowsWhileLive(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Start()
	defer rt.Shutdown()
	_, a := rt.LoopTotals()
	time.Sleep(5 * time.Millisecond)
	_, b := rt.LoopTotals()
	if b <= a {
		t.Fatalf("live func total did not grow: %d -> %d", a, b)
	}
}

func TestPhaseDurationHistogramPopulated(t *testing.T) {
	rt := New(WithWorkers(1))
	runAll(t, rt, 50)
	h := rt.PhaseDurations()
	if h.Count() != 50 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if h.Mean() <= 0 {
		t.Fatalf("histogram mean = %v", h.Mean())
	}
	if v, ok := rt.Counters().Value("/threads/time/phase-duration-histogram"); !ok || v != h.Mean() {
		t.Fatalf("registry histogram = %v ok=%v", v, ok)
	}
}

func TestPerWorkerInstanceCounters(t *testing.T) {
	rt := New(WithWorkers(2))
	runAll(t, rt, 100)
	names := rt.Counters().NamesWithPrefix("/threads{worker-thread#")
	if len(names) == 0 {
		t.Fatal("no per-worker instances registered")
	}
	var sum float64
	for w := 0; w < 2; w++ {
		v, ok := rt.Counters().Value(counters.InstanceName(counters.CountCumulative, w))
		if !ok {
			t.Fatalf("instance for worker %d missing", w)
		}
		sum += v
	}
	if sum != 100 {
		t.Fatalf("instance sum = %v, want 100", sum)
	}
}

func TestCancelBeforeDispatch(t *testing.T) {
	rt := New(WithWorkers(1))
	// Queue tasks before Start so cancellation happens while staged.
	var ran atomic.Int64
	tasks := make([]*Task, 10)
	for i := range tasks {
		tasks[i] = rt.Spawn(func(*Context) { ran.Add(1) })
	}
	for i := 0; i < 5; i++ {
		if !tasks[i].Cancel() {
			t.Fatalf("cancel %d refused", i)
		}
	}
	rt.Start()
	rt.WaitIdle()
	rt.Shutdown()
	if ran.Load() != 5 {
		t.Fatalf("ran %d, want 5", ran.Load())
	}
	cancelled, _ := rt.Counters().Value("/threads/count/cancelled")
	if cancelled != 5 {
		t.Fatalf("cancelled counter = %v", cancelled)
	}
	for i := 0; i < 10; i++ {
		if tasks[i].State() != Terminated {
			t.Fatalf("task %d state %v", i, tasks[i].State())
		}
		if tasks[i].WasCancelled() != (i < 5) {
			t.Fatalf("task %d WasCancelled = %v", i, tasks[i].WasCancelled())
		}
	}
}

func TestCancelAfterTerminationRefused(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Start()
	defer rt.Shutdown()
	task := rt.Spawn(func(*Context) {})
	rt.WaitIdle()
	if task.Cancel() {
		t.Fatal("cancel of terminated task accepted")
	}
}

func TestCancelledTaskCountsTowardIdleDrain(t *testing.T) {
	// WaitIdle must still return when queued tasks are cancelled rather
	// than executed.
	rt := New(WithWorkers(1))
	tasks := make([]*Task, 50)
	for i := range tasks {
		tasks[i] = rt.Spawn(func(*Context) {})
		tasks[i].Cancel()
	}
	rt.Start()
	rt.WaitIdle() // must not hang
	rt.Shutdown()
	nt, _ := rt.Counters().Value(counters.CountCumulative)
	if nt != 0 {
		t.Fatalf("cancelled tasks counted as executed: %v", nt)
	}
}
