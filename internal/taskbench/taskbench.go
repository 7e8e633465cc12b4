package taskbench

import (
	"fmt"
	"sync/atomic"
	"time"

	"taskgrain/internal/future"
	"taskgrain/internal/taskrt"
)

// Config parameterizes one grid run on a live runtime.
type Config struct {
	// Graph is the task grid: pattern, steps, width, seed.
	Graph Graph
	// Kernel is the per-task work function (default BusyWork).
	Kernel Kernel
	// Grain is the kernel units each task runs (default 1).
	Grain int
	// Verify turns on the happens-before instrumentation: every task writes
	// a completion stamp and checks its dependencies' stamps before running
	// the kernel. Stamp accesses are deliberately plain (non-atomic) so `go
	// test -race` converts any missing dependency edge into a reported data
	// race; the logical check (dependency not finished) is additionally
	// counted race-safely in Result.Violations.
	Verify bool
	// Abort, when set, is polled by every task; once true the kernels are
	// skipped (the dependence structure still completes) so the grid drains
	// at queue speed.
	Abort func() bool
}

// Result summarizes one grid run.
type Result struct {
	// Pattern and Grain echo the configuration.
	Pattern Pattern
	Grain   int
	// Tasks is the number of tasks executed (the grid size).
	Tasks int64
	// Elapsed is the wall time from first spawn to last completion.
	Elapsed time.Duration
	// ExecNs and FuncNs are the interval deltas of Σt_exec and Σt_func
	// (Eqs. 3 and 2) over the run.
	ExecNs, FuncNs int64
	// Efficiency is the parallel efficiency over the run: ΔΣt_exec/ΔΣt_func,
	// the complement of the paper's idle-rate (Eq. 1). Approximate when other
	// work shares the runtime.
	Efficiency float64
	// TaskNs is the measured mean task duration ΔΣt_exec / Tasks — the
	// granularity axis of the METG search (Eq. 5's t_avg).
	TaskNs float64
	// Checksum digests every task's kernel output; identical configurations
	// produce identical checksums.
	Checksum uint64
	// Violations counts happens-before violations observed under Verify: a
	// task that began before one of its dependencies stamped completion.
	// Always zero on a correct runtime.
	Violations int64
}

// Run executes the grid on rt, which must already be started. The calling
// goroutine blocks until the whole grid has completed (it must not be a
// task phase).
func Run(rt *taskrt.Runtime, cfg Config) (*Result, error) {
	g := cfg.Graph
	if err := g.Validate(); err != nil {
		return nil, err
	}
	kernel := cfg.Kernel
	if kernel == nil {
		kernel = BusyWork{}
	}
	grain := cfg.Grain
	if grain < 1 {
		grain = 1
	}
	abort := cfg.Abort
	if abort == nil {
		abort = func() bool { return false }
	}

	// Completion stamps, one per task, indexed [step][lane]. Plain writes on
	// completion, plain reads by dependents: the dependency edges themselves
	// must order them, which is exactly what -race checks. done mirrors the
	// stamps atomically for the violation count.
	var stamps [][]uint64
	var done []atomic.Bool
	offsets := make([]int, g.Steps)
	if cfg.Verify {
		stamps = make([][]uint64, g.Steps)
		total := 0
		for s := 0; s < g.Steps; s++ {
			offsets[s] = total
			stamps[s] = make([]uint64, g.ActiveWidth(s))
			total += g.ActiveWidth(s)
		}
		done = make([]atomic.Bool, total)
	}

	var tasks atomic.Int64
	var checksum atomic.Uint64
	var violations atomic.Int64

	body := func(step, lane int, deps []int) uint64 {
		tasks.Add(1)
		var acc uint64
		if cfg.Verify {
			for _, d := range deps {
				if !done[offsets[step-1]+d].Load() {
					violations.Add(1)
				}
				acc ^= stamps[step-1][d] // plain read: -race audits the edge
			}
		}
		if !abort() {
			acc ^= kernel.Run(step*g.Width+lane, grain)
		}
		if cfg.Verify {
			stamps[step][lane] = splitmix(uint64(step)<<32 | uint64(lane))
			done[offsets[step]+lane].Store(true)
		}
		checksum.Add(acc)
		return acc
	}

	execBefore, funcBefore := rt.LoopTotals()
	start := time.Now()

	// Patterns like Trivial and Random leave tasks with no dependents, so
	// waiting on the final step alone would return with earlier-step tasks
	// still running. Collect every future and wait on all of them.
	all := make([]*future.Future[uint64], 0, g.Tasks())
	prev := make([]*future.Future[uint64], 0, g.Width)
	for step := 0; step < g.Steps; step++ {
		active := g.ActiveWidth(step)
		cur := make([]*future.Future[uint64], active)
		// Dependency-free lanes (the whole first step, and every lane of
		// patterns like Trivial) fan out together: collect them and spawn
		// the step's independent work as one batch.
		var rootFns []func() uint64
		var rootLanes []int
		for w := 0; w < active; w++ {
			step, w := step, w
			deps := g.Deps(step, w)
			if len(deps) == 0 {
				rootFns = append(rootFns, func() uint64 {
					return body(step, w, nil)
				})
				rootLanes = append(rootLanes, w)
				continue
			}
			depFs := make([]*future.Future[uint64], len(deps))
			for i, d := range deps {
				depFs[i] = prev[d]
			}
			cur[w] = future.Dataflow(rt, func([]uint64) uint64 {
				return body(step, w, deps)
			}, depFs)
		}
		for i, f := range future.AsyncBatch(rt, rootFns) {
			cur[rootLanes[i]] = f
		}
		prev = cur
		all = append(all, cur...)
	}
	future.WhenAll(all).Wait()

	elapsed := time.Since(start)
	execAfter, funcAfter := rt.LoopTotals()
	res := &Result{
		Pattern:    g.Pattern,
		Grain:      grain,
		Tasks:      tasks.Load(),
		Elapsed:    elapsed,
		ExecNs:     execAfter - execBefore,
		FuncNs:     funcAfter - funcBefore,
		Checksum:   checksum.Load(),
		Violations: violations.Load(),
	}
	if res.FuncNs > 0 {
		res.Efficiency = float64(res.ExecNs) / float64(res.FuncNs)
		if res.Efficiency > 1 {
			res.Efficiency = 1
		}
		if res.Efficiency < 0 {
			res.Efficiency = 0
		}
	}
	if res.Tasks > 0 {
		res.TaskNs = float64(res.ExecNs) / float64(res.Tasks)
	}
	if want := int64(g.Tasks()); res.Tasks != want {
		return res, fmt.Errorf("taskbench: ran %d tasks, graph has %d", res.Tasks, want)
	}
	return res, nil
}
