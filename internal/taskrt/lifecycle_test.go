package taskrt

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"taskgrain/internal/trace"
)

// TestGroupSpawnBatchAllocsPerBatch pins the batch-allocated lifecycle: a
// Group.SpawnBatch of 800 tasks plus Wait allocates a fixed few records per
// batch — the task slab, the handle slice, one queue-node slab per
// destination queue — and one node slab per staged→pending conversion of
// up to StagedBatch tasks, never a record per task.
func TestGroupSpawnBatchAllocsPerBatch(t *testing.T) {
	const n, fixed = 800, 8
	for _, staged := range []int{8, n} {
		rt := New(WithWorkers(2), WithStagedBatch(staged))
		rt.Start()
		fns := make([]func(*Context), n)
		for i := range fns {
			fns[i] = func(*Context) {}
		}
		g := rt.NewGroup()
		allocs := testing.AllocsPerRun(20, func() {
			g.SpawnBatch(fns)
			g.Wait()
		})
		rt.Shutdown()
		conversions := (n + staged - 1) / staged
		t.Logf("StagedBatch %d: %.1f allocs per batch of %d", staged, allocs, n)
		if budget := float64(fixed + conversions); allocs > budget {
			t.Errorf("StagedBatch %d: %.0f allocs per batch of %d, want <= %.0f", staged, allocs, n, budget)
		}
	}
}

// TestGroupRunAllocsPerWave pins Group.Run's record reuse: a warm wave of
// 800 tasks allocates only queue-node slabs — one per destination staged
// queue and at most one per staged→pending conversion, a partial one per
// queue included — and no Task records, so its bytes stay below one slab
// of records.
func TestGroupRunAllocsPerWave(t *testing.T) {
	const workers, n = 2, 800
	for _, staged := range []int{8, n} {
		rt := New(WithWorkers(workers), WithStagedBatch(staged))
		rt.Start()
		fns := make([]func(*Context), n)
		for i := range fns {
			fns[i] = func(*Context) {}
		}
		g := rt.NewGroup()
		g.Run(fns) // grows the group's records
		allocs := testing.AllocsPerRun(20, func() { g.Run(fns) })
		const waves = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < waves; i++ {
			g.Run(fns)
		}
		runtime.ReadMemStats(&after)
		rt.Shutdown()
		bytes := (after.TotalAlloc - before.TotalAlloc) / waves
		slab := uint64(n * unsafe.Sizeof(Task{}))
		budget := float64(workers + (n+staged-1)/staged + workers)
		t.Logf("StagedBatch %d: %.1f allocs, %d B per wave of %d (a Task slab is %d B)", staged, allocs, bytes, n, slab)
		if allocs > budget {
			t.Errorf("StagedBatch %d: %.0f allocs per wave of %d, want <= %.0f", staged, allocs, n, budget)
		}
		if bytes >= slab {
			t.Errorf("StagedBatch %d: %d B per wave of %d, want < %d (one Task slab)", staged, bytes, n, slab)
		}
	}
}

// TestGroupRunPendingPanics checks that Run refuses a group with a task
// still pending, whose record it might otherwise reuse.
func TestGroupRunPendingPanics(t *testing.T) {
	rt := New(WithWorkers(1))
	rt.Start()
	defer rt.Shutdown()
	g := rt.NewGroup()
	release := make(chan struct{})
	g.Spawn(func(*Context) { <-release })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Run on a group with a pending task did not panic")
			}
		}()
		g.Run([]func(*Context){func(*Context) {}})
	}()
	close(release)
	g.Wait()
	if got := g.Run([]func(*Context){func(*Context) {}}); got != 0 {
		t.Fatalf("Run after the pending task finished = %d panics", got)
	}
}

// TestGroupMixedLifecycleRace runs one group of panicking, cancelled, and
// suspending tasks together. Wait must count exactly the panics, from first
// and resumed phases, Panics must return their values, cancelled tasks must
// never run, and a resumed phase must see the same Context and Task as the
// phase that suspended, reporting the worker that runs it.
func TestGroupMixedLifecycleRace(t *testing.T) {
	const workers, n = 2, 300
	tr := trace.New(0)
	rt := New(WithWorkers(workers), WithTracer(tr), WithPanicHandler(func(*Task, any) {}))
	rt.Start()
	defer rt.Shutdown()

	// Hold every worker so the batch stays queued until the cancels land.
	release := make(chan struct{})
	var holding sync.WaitGroup
	holding.Add(workers)
	for w := 0; w < workers; w++ {
		rt.Spawn(func(*Context) { holding.Done(); <-release }, WithHint(w))
	}
	holding.Wait()

	type resumed struct {
		task   *Task
		worker int
	}
	var (
		ranCancelled atomic.Int64
		mu           sync.Mutex
		second       []resumed
		resumers     = make(chan *Resumer, n)
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	fns := make([]func(*Context), n)
	var wantPanics []int
	for i := range fns {
		switch i % 3 {
		case 0:
			wantPanics = append(wantPanics, i)
			fns[i] = func(*Context) { panic(i) }
		case 1:
			fns[i] = func(*Context) { ranCancelled.Add(1) }
		case 2:
			// Every other suspending task panics in its resumed phase: a
			// group counts panics from any phase, not only the first.
			panicsLater := i%2 == 0
			if panicsLater {
				wantPanics = append(wantPanics, i)
			}
			fns[i] = func(c *Context) {
				self := c.Task()
				resumers <- c.SuspendInto(func(c2 *Context) {
					if c2 != c || c2.Task() != self {
						fail("task %d: resumed phase got context %p task %p, want %p %p", self.ID(), c2, c2.Task(), c, self)
					}
					mu.Lock()
					second = append(second, resumed{self, c2.Worker()})
					mu.Unlock()
					if panicsLater {
						panic(i)
					}
				})
			}
		}
	}
	g := rt.NewGroup()
	tasks := g.SpawnBatch(fns)
	for i := 1; i < n; i += 3 {
		if !tasks[i].Cancel() {
			t.Fatalf("task %d: Cancel refused before dispatch", i)
		}
	}
	close(release)
	go func() {
		for i := 0; i < n/3; i++ {
			(<-resumers).Resume()
		}
	}()

	if got := g.Wait(); got != len(wantPanics) {
		t.Fatalf("Wait = %d panics, want %d", got, len(wantPanics))
	}
	sort.Ints(wantPanics)
	var gotPanics []int
	for _, v := range g.Panics() {
		gotPanics = append(gotPanics, v.(int))
	}
	sort.Ints(gotPanics)
	if len(gotPanics) != len(wantPanics) {
		t.Fatalf("Panics() = %v, want %v", gotPanics, wantPanics)
	}
	for i := range gotPanics {
		if gotPanics[i] != wantPanics[i] {
			t.Fatalf("Panics() = %v, want %v", gotPanics, wantPanics)
		}
	}
	if r := ranCancelled.Load(); r != 0 {
		t.Fatalf("%d cancelled tasks ran", r)
	}
	for i, task := range tasks {
		if task.State() != Terminated {
			t.Fatalf("task %d in state %v after Wait", i, task.State())
		}
	}

	// The resumed phase's Worker() must be the worker the runtime ran that
	// phase on: its task's second phase-begin event.
	rt.WaitIdle()
	secondBegin := map[uint64]int{}
	seen := map[uint64]int{}
	for _, e := range tr.Events() {
		if e.Kind == trace.PhaseBegin {
			if seen[e.TaskID]++; seen[e.TaskID] == 2 {
				secondBegin[e.TaskID] = e.Worker
			}
		}
	}
	if len(second) != n/3 {
		t.Fatalf("%d resumed phases ran, want %d", len(second), n/3)
	}
	for _, r := range second {
		if w, ok := secondBegin[r.task.ID()]; !ok || w != r.worker {
			t.Fatalf("task %d: resumed phase reported worker %d, trace says %d (found %v)", r.task.ID(), r.worker, w, ok)
		}
		if r.task.Phases() != 2 {
			t.Fatalf("task %d: %d phases, want 2", r.task.ID(), r.task.Phases())
		}
	}
}

// TestSpawnBatchHandleOutlivesBatch keeps one handle of a batch whose other
// tasks have all terminated and been dropped: its ID, State and Phases stay
// valid across a collection, while the task itself is still suspended.
func TestSpawnBatchHandleOutlivesBatch(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()

	const n = 64
	resumer := make(chan *Resumer, 1)
	fns := make([]func(*Context), n)
	for i := range fns {
		fns[i] = func(*Context) {}
	}
	fns[n/2] = func(c *Context) { resumer <- c.SuspendInto(func(*Context) {}) }
	tasks := rt.SpawnBatch(fns)
	kept, first := tasks[n/2], tasks[0].ID()
	tasks = nil
	r := <-resumer
	for kept.State() != Suspended || rt.Inflight() != 1 {
		runtime.Gosched()
	}
	runtime.GC()

	if got, want := kept.ID(), first+n/2; got != want {
		t.Fatalf("ID = %d, want %d", got, want)
	}
	if kept.State() != Suspended || kept.Phases() != 1 {
		t.Fatalf("suspended handle reports state %v, %d phases", kept.State(), kept.Phases())
	}
	r.Resume()
	rt.WaitIdle()
	runtime.GC()
	if kept.State() != Terminated || kept.Phases() != 2 {
		t.Fatalf("after resume: state %v, %d phases, want terminated, 2", kept.State(), kept.Phases())
	}
}
