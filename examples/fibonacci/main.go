// Fibonacci: a recursive task tree with a sequential cutoff — the classic
// illustration of task granularity outside the stencil. Below the cutoff
// the computation runs inline; above it every call is its own task. A small
// cutoff drowns the runtime in microscopic tasks (the paper's fine-grain
// wall); a huge cutoff leaves the workers starved (the coarse-grain wall).
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"taskgrain/internal/core"
	"taskgrain/internal/future"
	"taskgrain/internal/taskrt"
)

// fib builds a future tree: below the cutoff each subtree is one leaf task
// computing sequentially; above it, each node is a continuation task joining
// its two children. Tasks never block — composition is pure dataflow, so any
// worker count (even one) makes progress.
func fib(rt *taskrt.Runtime, n, cutoff int) *future.Future[uint64] {
	if n < cutoff {
		n := n
		return future.Async(rt, func() uint64 { return fibSeq(n) })
	}
	left := fib(rt, n-1, cutoff)
	right := fib(rt, n-2, cutoff)
	return future.Then(rt, future.When2(left, right), func(p struct {
		A uint64
		B uint64
	}) uint64 {
		return p.A + p.B
	})
}

func fibSeq(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

func main() {
	n := flag.Int("n", 30, "fibonacci index")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
	flag.Parse()

	fmt.Printf("fib(%d) with %d workers — granularity via sequential cutoff\n\n", *n, *workers)
	fmt.Printf("%-8s %-12s %-10s %-8s %-10s %s\n", "cutoff", "result", "time", "tasks", "idle%", "t_o(µs)")
	for _, cutoff := range []int{12, 16, 20, 24, *n + 1} {
		rt := taskrt.New(taskrt.WithWorkers(*workers))
		rt.Start()
		t0 := time.Now()
		result := fib(rt, *n, cutoff).Wait()
		elapsed := time.Since(t0)
		rt.WaitIdle()
		snap := rt.Counters().Snapshot()
		rt.Shutdown()
		raw := core.RawRunFromSnapshot(snap, *workers, elapsed)
		label := fmt.Sprintf("%d", cutoff)
		if cutoff > *n {
			label = "seq"
		}
		fmt.Printf("%-8s %-12d %-10v %-8.0f %-10.1f %.2f\n",
			label, result, elapsed.Round(time.Microsecond), raw.Tasks,
			raw.IdleRate()*100, raw.TaskOverheadNs()/1000)
	}
	fmt.Println("\nsmall cutoff → many tiny tasks (overhead wall); 'seq' → one task (no parallelism)")
}
