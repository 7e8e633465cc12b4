// Package parallel provides grain-controlled parallel algorithms on top of
// the task runtime — the "regular parallel loops" setting the paper opens
// its methodology with ("In parallel applications, with regular parallel
// loops, we can easily modify grain size statically to improve
// performance", Sec. II). Every algorithm takes an explicit grain: the
// number of consecutive iterations per task.
package parallel

import (
	"sync"

	"taskgrain/internal/taskrt"
)

// AutoGrain returns a reasonable static grain for n iterations on rt: it
// targets tasksPerWorker tasks per worker (8 when <= 0), the conventional
// slack that keeps stealing effective without drowning the scheduler.
func AutoGrain(rt *taskrt.Runtime, n, tasksPerWorker int) int {
	if n <= 0 {
		return 1
	}
	if tasksPerWorker <= 0 {
		tasksPerWorker = 8
	}
	grain := n / (rt.Workers() * tasksPerWorker)
	if grain < 1 {
		grain = 1
	}
	return grain
}

// chunks invokes emit(lo, hi) for each [lo,hi) grain-sized block of [0,n).
func chunks(n, grain int, emit func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		emit(lo, hi)
	}
}

// For runs body(i) for every i in [0,n) as tasks of `grain` consecutive
// iterations and blocks until all complete. body must be safe for
// concurrent invocation on distinct indices. grain <= 0 selects AutoGrain.
func For(rt *taskrt.Runtime, n, grain int, body func(i int)) {
	ForRange(rt, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange is For with the chunk boundaries exposed — the body receives
// each [lo,hi) block whole, allowing per-chunk setup to amortize (this is
// where grain size becomes a real performance knob).
func ForRange(rt *taskrt.Runtime, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = AutoGrain(rt, n, 0)
	}
	// One SpawnBatch for the whole iteration space: the per-task spawn cost
	// (inflight add, queue CAS, wake) is paid once per loop, which is where
	// fine grains stop losing to spawn overhead.
	var wg sync.WaitGroup
	fns := make([]func(*taskrt.Context), 0, (n+grain-1)/grain)
	chunks(n, grain, func(lo, hi int) {
		fns = append(fns, func(*taskrt.Context) {
			defer wg.Done()
			body(lo, hi)
		})
	})
	wg.Add(len(fns))
	rt.SpawnBatch(fns)
	wg.Wait()
}

// Map applies f to every element of in, with `grain` elements per task.
func Map[T, U any](rt *taskrt.Runtime, in []T, grain int, f func(T) U) []U {
	out := make([]U, len(in))
	ForRange(rt, len(in), grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(in[i])
		}
	})
	return out
}

// Reduce combines the elements of in with an associative combine and its
// identity, computing per-chunk partials in parallel and folding them in
// chunk order (so non-commutative but associative combines are safe).
func Reduce[T any](rt *taskrt.Runtime, in []T, grain int, identity T, combine func(T, T) T) T {
	n := len(in)
	if n == 0 {
		return identity
	}
	if grain <= 0 {
		grain = AutoGrain(rt, n, 0)
	}
	nChunks := (n + grain - 1) / grain
	partials := make([]T, nChunks)
	var wg sync.WaitGroup
	fns := make([]func(*taskrt.Context), 0, nChunks)
	chunks(n, grain, func(lo, hi int) {
		slot := len(fns)
		fns = append(fns, func(*taskrt.Context) {
			defer wg.Done()
			acc := identity
			for i := lo; i < hi; i++ {
				acc = combine(acc, in[i])
			}
			partials[slot] = acc
		})
	})
	wg.Add(len(fns))
	rt.SpawnBatch(fns)
	wg.Wait()
	acc := identity
	for _, p := range partials {
		acc = combine(acc, p)
	}
	return acc
}
