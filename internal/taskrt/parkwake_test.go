package taskrt

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskgrain/internal/counters"
)

// queueAccesses sums the pending+staged access counters — the discovery
// probes the paper counts per look-up for work.
func queueAccesses(rt *Runtime) int64 {
	reg := rt.Counters()
	pa, _ := reg.Value(counters.PendingAccesses)
	sa, _ := reg.Value(counters.StagedAccesses)
	return int64(pa + sa)
}

// Quiescence regression: an idle runtime must not burn discovery sweeps.
// Under the old global-broadcast park scheme every worker's 200µs timeout
// woke all parked workers into full 64-sweep discovery spins, growing the
// access counters by ~84k per 50ms with 4 workers. The per-worker parker
// holds a timed-out worker at one probe sweep per (backed-off) timeout, so
// 50ms of idleness now costs a few hundred probes — assert well over a 10×
// drop, with slack for scheduler jitter on loaded CI machines.
const idleAccessBudgetPer50ms = 8000

func measureIdleGrowth(t *testing.T, rt *Runtime) int64 {
	t.Helper()
	// Let the post-work discovery spin decay into parked steady state
	// (ParkAfter sweeps, then timeout backoff up to 16×200µs).
	time.Sleep(20 * time.Millisecond)
	before := queueAccesses(rt)
	time.Sleep(50 * time.Millisecond)
	return queueAccesses(rt) - before
}

func TestIdleRuntimeQuiescentNoSpawn(t *testing.T) {
	rt := New(WithWorkers(4))
	rt.Start()
	defer rt.Shutdown()
	if growth := measureIdleGrowth(t, rt); growth > idleAccessBudgetPer50ms {
		t.Fatalf("idle runtime grew queue-access counters by %d in 50ms (budget %d): wake storm is back",
			growth, idleAccessBudgetPer50ms)
	}
}

func TestIdleRuntimeQuiescentAfterDrain(t *testing.T) {
	rt := New(WithWorkers(4))
	rt.Start()
	defer rt.Shutdown()
	var ran atomic.Bool
	rt.Spawn(func(*Context) { ran.Store(true) })
	rt.WaitIdle()
	if !ran.Load() {
		t.Fatal("task did not run")
	}
	if growth := measureIdleGrowth(t, rt); growth > idleAccessBudgetPer50ms {
		t.Fatalf("drained runtime grew queue-access counters by %d in 50ms (budget %d)",
			growth, idleAccessBudgetPer50ms)
	}
	// The steady state must be park timeouts, observable via the new
	// counters: parks happened, and none of this idle period needed signals.
	if v, ok := rt.Counters().Value(counters.CountParkTimeouts); !ok || v == 0 {
		t.Fatalf("park-timeouts counter = %v, %v; want registered and > 0 after idling", v, ok)
	}
}

// TestWakeCountersObserveSignals checks the wake path is the signal path:
// spawning into a parked runtime must be delivered by targeted wakes, and
// every counter is registered with per-worker instances.
func TestWakeCountersObserveSignals(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	for i := 0; i < 20; i++ {
		time.Sleep(2 * time.Millisecond) // let workers park
		rt.Spawn(func(*Context) {})
		rt.WaitIdle()
	}
	reg := rt.Counters()
	sig, ok := reg.Value(counters.CountWakeSignals)
	if !ok {
		t.Fatal("wake-signals counter not registered")
	}
	wk, ok := reg.Value(counters.CountWakeups)
	if !ok {
		t.Fatal("wakeups counter not registered")
	}
	if sig == 0 || wk == 0 {
		t.Fatalf("wake-signals = %v, wakeups = %v; want both > 0 when spawning into a parked runtime", sig, wk)
	}
	for _, base := range []string{counters.CountWakeSignals, counters.CountWakeups, counters.CountParkTimeouts} {
		if _, ok := reg.Value(counters.InstanceName(base, 0)); !ok {
			t.Fatalf("per-worker instance of %s not registered", base)
		}
	}
}

// TestParkWakeSpawnRaceStress hammers the spawner-vs-parking race: bursts
// of spawns land exactly as workers decide to park. Every task must run and
// WaitIdle must never hang on a missed wakeup.
func TestParkWakeSpawnRaceStress(t *testing.T) {
	rt := New(WithWorkers(4), WithParkAfter(1), WithParkTimeout(50*time.Microsecond))
	rt.Start()
	defer rt.Shutdown()

	const spawners, rounds, perRound = 4, 50, 8
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for s := 0; s < spawners; s++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for r := 0; r < rounds; r++ {
					// Sleep past the park threshold sometimes so spawns hit
					// parked workers, and not at all other times so they hit
					// the narrow about-to-park window.
					if rng.Intn(2) == 0 {
						time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					}
					for i := 0; i < perRound; i++ {
						rt.Spawn(func(*Context) { ran.Add(1) })
					}
				}
			}(int64(s) + 1)
		}
		wg.Wait()
		rt.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("WaitIdle hung: missed wakeup (ran %d of %d)", ran.Load(), int64(spawners*rounds*perRound))
	}
	if got, want := ran.Load(), int64(spawners*rounds*perRound); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
}

// TestParkWakeThrottleStress flips SetActiveWorkers while spawning; the
// force-wake on throttle changes must keep parked workers responsive and
// the run must drain.
func TestParkWakeThrottleStress(t *testing.T) {
	rt := New(WithWorkers(4), WithParkAfter(4), WithParkTimeout(100*time.Microsecond))
	rt.Start()
	defer rt.Shutdown()

	var ran atomic.Int64
	const total = 400
	done := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < total; i++ {
			if i%10 == 0 {
				rt.SetActiveWorkers(1 + rng.Intn(4))
			}
			rt.Spawn(func(*Context) { ran.Add(1) })
			if i%25 == 0 {
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}
		rt.SetActiveWorkers(4)
		rt.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("WaitIdle hung under throttle churn (ran %d of %d)", ran.Load(), total)
	}
	if ran.Load() != total {
		t.Fatalf("ran %d tasks, want %d", ran.Load(), total)
	}
}

// TestFuncTotalMonotonicUnderThrottleChurn is the satellite regression for
// the Σt_func read-ordering bug: hammer SetActiveWorkers (whose throttle
// hand-off moves live loop intervals into the completed total) while
// polling LoopTotals, asserting Σt_func never regresses or goes negative.
func TestFuncTotalMonotonicUnderThrottleChurn(t *testing.T) {
	rt := New(WithWorkers(4))
	rt.Start()
	defer rt.Shutdown()

	stop := make(chan struct{})
	var churns sync.WaitGroup
	churns.Add(1)
	go func() {
		defer churns.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.SetActiveWorkers(n%4 + 1)
			n++
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	var prev int64
	polls := 0
	for time.Now().Before(deadline) {
		_, ft := rt.LoopTotals()
		if ft < 0 {
			t.Errorf("func total = %d, want non-negative", ft)
			break
		}
		if ft < prev {
			t.Errorf("func total regressed: %d after %d (poll %d)", ft, prev, polls)
			break
		}
		prev = ft
		polls++
	}
	close(stop)
	churns.Wait()
	if polls < 100 {
		t.Fatalf("only %d func-total polls completed; test did not exercise the race", polls)
	}
}

// TestHintNormalizationAllPolicies is the satellite regression for the
// placer's truncated-modulo panic: negative hints (other than the AnyWorker
// sentinel) and hints beyond Workers() must map to a real queue on every
// policy instead of panicking the worker.
func TestHintNormalizationAllPolicies(t *testing.T) {
	for _, pol := range []PolicyKind{PriorityLocalFIFO, StaticRoundRobin, WorkStealingLIFO} {
		t.Run(pol.String(), func(t *testing.T) {
			rt := New(WithWorkers(3), WithPolicy(pol))
			var ran atomic.Int64
			hints := []int{-2, -3, -300, 3, 7, 1 << 20}
			rt.Run(func(rt *Runtime) {
				for _, h := range hints {
					rt.Spawn(func(*Context) { ran.Add(1) }, WithHint(h))
				}
			})
			if got := ran.Load(); got != int64(len(hints)) {
				t.Fatalf("ran %d tasks, want %d", got, len(hints))
			}
		})
	}
}

// TestHintNormalizationFloored pins the floored-modulo law directly: a
// negative hint lands on the same worker as its positive congruent.
func TestHintNormalizationFloored(t *testing.T) {
	p := placer{workers: 4}
	cases := map[int]int{-1 - 4: 3, -2: 2, -4: 0, -7: 1, 5: 1, 4: 0}
	for hint, want := range cases {
		if got := p.place(&Task{hint: hint}); got != want {
			t.Errorf("place(hint=%d) = %d, want %d", hint, got, want)
		}
	}
}

func TestSpawnBatchRunsAllPolicies(t *testing.T) {
	for _, pol := range []PolicyKind{PriorityLocalFIFO, StaticRoundRobin, WorkStealingLIFO} {
		t.Run(pol.String(), func(t *testing.T) {
			rt := New(WithWorkers(4), WithPolicy(pol))
			const n = 257 // odd size: exercises the ragged last chunk
			var ran atomic.Int64
			fns := make([]func(*Context), n)
			for i := range fns {
				fns[i] = func(*Context) { ran.Add(1) }
			}
			rt.Run(func(rt *Runtime) {
				tasks := rt.SpawnBatch(fns)
				if len(tasks) != n {
					t.Errorf("SpawnBatch returned %d tasks, want %d", len(tasks), n)
				}
				seen := map[uint64]bool{}
				for _, task := range tasks {
					if seen[task.ID()] {
						t.Errorf("duplicate task id %d in batch", task.ID())
					}
					seen[task.ID()] = true
				}
			})
			if ran.Load() != n {
				t.Fatalf("ran %d tasks, want %d", ran.Load(), n)
			}
		})
	}
}

func TestSpawnBatchOptionsApply(t *testing.T) {
	rt := New(WithWorkers(4), WithPolicy(StaticRoundRobin))
	const n = 16
	var onHome atomic.Int64
	fns := make([]func(*Context), n)
	for i := range fns {
		fns[i] = func(c *Context) {
			if c.Worker() == 2 {
				onHome.Add(1)
			}
		}
	}
	rt.Run(func(rt *Runtime) { rt.SpawnBatch(fns, WithHint(2)) })
	// StaticRoundRobin has no stealing: a hinted batch runs entirely on its
	// home worker.
	if onHome.Load() != n {
		t.Fatalf("%d of %d hinted batch tasks ran on worker 2", onHome.Load(), n)
	}
}

func TestSpawnBatchEmptyAndPriorities(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Run(func(rt *Runtime) {
		if got := rt.SpawnBatch(nil); got != nil {
			t.Errorf("SpawnBatch(nil) = %v, want nil", got)
		}
		var ran atomic.Int64
		mk := func() []func(*Context) {
			fns := make([]func(*Context), 5)
			for i := range fns {
				fns[i] = func(*Context) { ran.Add(1) }
			}
			return fns
		}
		rt.SpawnBatch(mk(), WithPriority(PriorityHigh))
		rt.SpawnBatch(mk(), WithPriority(PriorityLow))
		rt.SpawnBatch(mk())
		rt.WaitIdle()
		if ran.Load() != 15 {
			t.Errorf("ran %d tasks across priorities, want 15", ran.Load())
		}
	})
}

func TestGroupSpawnBatchWaitsAndCapturesPanics(t *testing.T) {
	rt := New(WithWorkers(2), WithPanicHandler(func(*Task, any) {}))
	rt.Start()
	defer rt.Shutdown()
	g := rt.NewGroup()
	var ran atomic.Int64
	fns := make([]func(*Context), 10)
	for i := range fns {
		i := i
		fns[i] = func(*Context) {
			ran.Add(1)
			if i%5 == 0 {
				panic("boom")
			}
		}
	}
	if got := g.SpawnBatch(fns); len(got) != 10 {
		t.Fatalf("Group.SpawnBatch returned %d tasks, want 10", len(got))
	}
	if panics := g.Wait(); panics != 2 {
		t.Fatalf("Wait reported %d panics, want 2", panics)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d tasks, want 10", ran.Load())
	}
	if g.SpawnBatch(nil) != nil {
		t.Fatal("Group.SpawnBatch(nil) should be a no-op")
	}
}
