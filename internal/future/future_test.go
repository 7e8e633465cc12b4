package future

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"taskgrain/internal/counters"
	"taskgrain/internal/taskrt"
)

func newRT(t *testing.T, workers int) *taskrt.Runtime {
	t.Helper()
	rt := taskrt.New(taskrt.WithWorkers(workers))
	rt.Start()
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestPromiseSetAndGet(t *testing.T) {
	p, f := NewPromise[int]()
	if _, ok := f.TryGet(); ok {
		t.Fatal("unset future ready")
	}
	if f.Ready() {
		t.Fatal("Ready true before set")
	}
	p.Set(42)
	v, ok := f.TryGet()
	if !ok || v != 42 {
		t.Fatalf("got %v ok=%v", v, ok)
	}
	if p.Future().Wait() != 42 {
		t.Fatal("promise.Future mismatch")
	}
}

func TestPromiseSetTwicePanics(t *testing.T) {
	p, _ := NewPromise[int]()
	p.Set(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Set must panic")
		}
	}()
	p.Set(2)
}

func TestReady(t *testing.T) {
	f := Ready("x")
	if v, ok := f.TryGet(); !ok || v != "x" {
		t.Fatal("Ready future not ready")
	}
	if f.Wait() != "x" {
		t.Fatal("Wait on ready future")
	}
}

func TestWaitBlocksUntilSet(t *testing.T) {
	p, f := NewPromise[int]()
	done := make(chan int)
	go func() { done <- f.Wait() }()
	go func() { done <- f.Wait() }() // two concurrent waiters
	p.Set(9)
	if <-done != 9 || <-done != 9 {
		t.Fatal("waiters got wrong value")
	}
}

func TestOnReadyBeforeAndAfter(t *testing.T) {
	p, f := NewPromise[int]()
	var sum atomic.Int64
	f.OnReady(func(v int) { sum.Add(int64(v)) })
	p.Set(5)
	f.OnReady(func(v int) { sum.Add(int64(v)) }) // runs inline
	if sum.Load() != 10 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestAsync(t *testing.T) {
	rt := newRT(t, 2)
	f := Async(rt, func() int { return 7 * 6 })
	if f.Wait() != 42 {
		t.Fatal("async result wrong")
	}
}

func TestAsyncCtxSeesWorker(t *testing.T) {
	rt := newRT(t, 2)
	f := AsyncCtx(rt, func(c *taskrt.Context) int { return c.Worker() })
	w := f.Wait()
	if w < 0 || w >= 2 {
		t.Fatalf("worker = %d", w)
	}
}

func TestThenChain(t *testing.T) {
	rt := newRT(t, 2)
	f := Async(rt, func() int { return 3 })
	g := Then(rt, f, func(v int) int { return v * 10 })
	h := Then(rt, g, func(v int) string {
		if v == 30 {
			return "ok"
		}
		return "bad"
	})
	if h.Wait() != "ok" {
		t.Fatalf("chain result %q", h.Wait())
	}
}

func TestWhenAllOrderAndEmpty(t *testing.T) {
	rt := newRT(t, 3)
	fs := make([]*Future[int], 10)
	for i := range fs {
		i := i
		fs[i] = Async(rt, func() int { return i * i })
	}
	vs := WhenAll(fs).Wait()
	for i, v := range vs {
		if v != i*i {
			t.Fatalf("vs[%d] = %d", i, v)
		}
	}
	if vs := WhenAll[int](nil).Wait(); vs != nil {
		t.Fatal("empty WhenAll must complete with nil")
	}
}

func TestWhenAny(t *testing.T) {
	p1, f1 := NewPromise[string]()
	p2, f2 := NewPromise[string]()
	any := WhenAny([]*Future[string]{f1, f2})
	p2.Set("second")
	res := any.Wait()
	if res.Index != 1 || res.Value != "second" {
		t.Fatalf("res = %+v", res)
	}
	p1.Set("first") // late completion must be ignored without panic
	res2, _ := any.TryGet()
	if res2.Index != 1 {
		t.Fatal("WhenAny result changed after late completion")
	}
}

func TestWhenAnyEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WhenAny(nil) must panic")
		}
	}()
	WhenAny[int](nil)
}

func TestWhen2(t *testing.T) {
	pa, fa := NewPromise[int]()
	pb, fb := NewPromise[string]()
	both := When2(fa, fb)
	if both.Ready() {
		t.Fatal("pair ready too early")
	}
	pb.Set("s")
	if both.Ready() {
		t.Fatal("pair ready with one input")
	}
	pa.Set(4)
	v := both.Wait()
	if v.A != 4 || v.B != "s" {
		t.Fatalf("pair = %+v", v)
	}
}

func TestDataflowDefersUntilInputsReady(t *testing.T) {
	rt := newRT(t, 2)
	p1, f1 := NewPromise[int]()
	p2, f2 := NewPromise[int]()
	var ran atomic.Bool
	out := Dataflow(rt, func(vs []int) int {
		ran.Store(true)
		return vs[0] + vs[1]
	}, []*Future[int]{f1, f2})
	if ran.Load() {
		t.Fatal("dataflow ran before inputs")
	}
	p1.Set(1)
	if out.Ready() {
		t.Fatal("dataflow complete with missing input")
	}
	p2.Set(2)
	if out.Wait() != 3 {
		t.Fatal("dataflow sum wrong")
	}
}

func TestAwaitReadyFastPathNoSuspension(t *testing.T) {
	rt := newRT(t, 1)
	done := make(chan int, 1)
	rt.Spawn(func(c *taskrt.Context) {
		Await(c, Ready(5), func(_ *taskrt.Context, v int) { done <- v })
	})
	if <-done != 5 {
		t.Fatal("await fast path wrong value")
	}
	rt.WaitIdle()
	susp, _ := rt.Counters().Value("/threads/count/suspended")
	if susp != 0 {
		t.Fatalf("fast path suspended %v times", susp)
	}
}

func TestAwaitSuspends(t *testing.T) {
	rt := newRT(t, 2)
	p, f := NewPromise[int]()
	started := make(chan struct{})
	done := make(chan int, 1)
	task := rt.Spawn(func(c *taskrt.Context) {
		close(started)
		Await(c, f, func(_ *taskrt.Context, v int) { done <- v })
	})
	<-started
	p.Set(11)
	if <-done != 11 {
		t.Fatal("await value wrong")
	}
	rt.WaitIdle()
	if task.Phases() < 1 {
		t.Fatal("phase accounting lost")
	}
	susp, _ := rt.Counters().Value("/threads/count/suspended")
	if susp < 1 {
		t.Fatalf("suspension not recorded (%v); Await must have suspended", susp)
	}
}

func TestAwaitChainManyPhases(t *testing.T) {
	// A task awaiting k sequentially-completed futures accumulates k+1
	// phases (each Await after an unready future = one suspension).
	rt := newRT(t, 1)
	const k = 5
	proms := make([]*Promise[int], k)
	futs := make([]*Future[int], k)
	for i := range proms {
		proms[i], futs[i] = NewPromise[int]()
	}
	sum := make(chan int, 1)
	var chain func(c *taskrt.Context, i, acc int)
	chain = func(c *taskrt.Context, i, acc int) {
		if i == k {
			sum <- acc
			return
		}
		Await(c, futs[i], func(c2 *taskrt.Context, v int) { chain(c2, i+1, acc+v) })
	}
	task := rt.Spawn(func(c *taskrt.Context) { chain(c, 0, 0) })
	for i, p := range proms {
		// Complete each future only once the task has suspended on it;
		// one completed earlier would let Await take its inline path.
		for task.Phases() != int64(i+1) || task.State() != taskrt.Suspended {
			runtime.Gosched()
		}
		p.Set(i + 1)
	}
	if got := <-sum; got != 15 {
		t.Fatalf("sum = %d", got)
	}
	rt.WaitIdle()
	phases, _ := rt.Counters().Value(counters.CountCumulativePhases)
	nt, _ := rt.Counters().Value(counters.CountCumulative)
	if nt != 1 {
		t.Fatalf("tasks = %v, want 1", nt)
	}
	if phases != k+1 {
		t.Fatalf("phases = %v, want %d (suspensions must create phases)", phases, k+1)
	}
}

func TestFutureFanOutStress(t *testing.T) {
	rt := newRT(t, 4)
	const n = 500
	fs := make([]*Future[int], n)
	for i := range fs {
		i := i
		fs[i] = Async(rt, func() int { return i })
	}
	total := Then(rt, WhenAll(fs), func(vs []int) int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return s
	})
	if got := total.Wait(); got != n*(n-1)/2 {
		t.Fatalf("sum = %d", got)
	}
}

func TestConcurrentOnReadyRegistration(t *testing.T) {
	p, f := NewPromise[int]()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.OnReady(func(int) { fired.Add(1) })
		}()
	}
	p.Set(1)
	wg.Wait()
	// Late registrations fire inline; early ones fire on Set. All must fire.
	for i := 0; i < 50; i++ {
		f.OnReady(func(int) { fired.Add(1) })
	}
	if fired.Load() != 100 {
		t.Fatalf("fired = %d, want 100", fired.Load())
	}
}

// Property: WhenAll preserves input order for arbitrary completion orders.
func TestQuickWhenAllOrder(t *testing.T) {
	f := func(perm []uint8) bool {
		n := len(perm)
		if n == 0 || n > 20 {
			return true
		}
		proms := make([]*Promise[int], n)
		futs := make([]*Future[int], n)
		for i := range proms {
			proms[i], futs[i] = NewPromise[int]()
		}
		all := WhenAll(futs)
		// Complete in pseudo-random order derived from perm.
		completed := make([]bool, n)
		for _, raw := range perm {
			i := int(raw) % n
			for completed[i] {
				i = (i + 1) % n
			}
			completed[i] = true
			proms[i].Set(i * 3)
		}
		for i, c := range completed {
			if !c {
				proms[i].Set(i * 3)
			}
		}
		vs, ok := all.TryGet()
		if !ok || len(vs) != n {
			return false
		}
		for i, v := range vs {
			if v != i*3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a Then pipeline computes function composition.
func TestQuickThenComposes(t *testing.T) {
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	f := func(x int32, a, b int8) bool {
		f0 := Async(rt, func() int64 { return int64(x) })
		f1 := Then(rt, f0, func(v int64) int64 { return v + int64(a) })
		f2 := Then(rt, f1, func(v int64) int64 { return v * int64(b) })
		return f2.Wait() == (int64(x)+int64(a))*int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAsyncWait(b *testing.B) {
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Async(rt, func() int { return i }).Wait()
	}
}

func BenchmarkDataflowFanIn(b *testing.B) {
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deps := []*Future[int]{Ready(1), Ready(2), Ready(3)}
		Dataflow(rt, func(vs []int) int { return vs[0] + vs[1] + vs[2] }, deps).Wait()
	}
}

func TestAsyncPanicContained(t *testing.T) {
	// A panicking Async body terminates its task (counted) and never
	// completes the future; the runtime stays healthy.
	rt := taskrt.New(taskrt.WithWorkers(1), taskrt.WithPanicHandler(func(*taskrt.Task, any) {}))
	rt.Start()
	defer rt.Shutdown()
	f := Async(rt, func() int { panic("async boom") })
	rt.WaitIdle()
	if f.Ready() {
		t.Fatal("future of a panicked task must not complete")
	}
	// The runtime still runs subsequent work.
	if got := Async(rt, func() int { return 7 }).Wait(); got != 7 {
		t.Fatalf("follow-up work = %d", got)
	}
	exc, _ := rt.Counters().Value("/threads/count/exceptions")
	if exc != 1 {
		t.Fatalf("exceptions = %v", exc)
	}
}

func TestAsyncErrSuccessAndFailure(t *testing.T) {
	rt := newRT(t, 2)
	ok := AsyncErr(rt, func() (int, error) { return 5, nil })
	if v, err := WaitErr(ok); err != nil || v != 5 {
		t.Fatalf("ok = %v, %v", v, err)
	}
	bad := AsyncErr(rt, func() (int, error) { return 0, errSentinel })
	if _, err := WaitErr(bad); err != errSentinel {
		t.Fatalf("err = %v", err)
	}
}

func TestThenErrChainsAndShortCircuits(t *testing.T) {
	rt := newRT(t, 2)
	// Success chain.
	a := AsyncErr(rt, func() (int, error) { return 3, nil })
	b := ThenErr(rt, a, func(v int) (int, error) { return v * 10, nil })
	if v, err := WaitErr(b); err != nil || v != 30 {
		t.Fatalf("chain = %v, %v", v, err)
	}
	// Upstream failure skips the downstream function entirely.
	var downstream atomic.Bool
	fail := AsyncErr(rt, func() (int, error) { return 0, errSentinel })
	c := ThenErr(rt, fail, func(v int) (int, error) {
		downstream.Store(true)
		return v, nil
	})
	if _, err := WaitErr(c); err != errSentinel {
		t.Fatalf("propagated err = %v", err)
	}
	if downstream.Load() {
		t.Fatal("downstream ran after upstream error")
	}
	// Mid-chain failure propagates to the tail.
	d := ThenErr(rt, a, func(int) (int, error) { return 0, errSentinel })
	e := ThenErr(rt, d, func(v int) (int, error) { return v + 1, nil })
	if _, err := WaitErr(e); err != errSentinel {
		t.Fatalf("tail err = %v", err)
	}
}

var errSentinel = errors.New("sentinel")
