// Workload runners: each job kind is executed as a task group on the shared
// runtime, with the job's grain as the granularity knob and a per-task abort
// check so cancellation and deadlines drain quickly without ever blocking a
// worker. The kinds cover the paper's application classes: a regular
// dataflow grid (stencil1d), a recursive fork/join tree (fibonacci), a
// seeded irregular DAG (irregular), and the parameterized Task Bench grid
// (taskbench), whose dependence pattern is part of the request.
package taskserve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"taskgrain/internal/future"
	simpkg "taskgrain/internal/sim"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskbench"
	"taskgrain/internal/taskrt"
	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
	"taskgrain/internal/workloads"
)

// Job kinds.
const (
	KindStencil   = "stencil1d"
	KindFibonacci = "fibonacci"
	KindIrregular = "irregular"
	KindTaskbench = "taskbench"
)

// jobKinds lists every kind; the server builds one adaptive grain
// controller per entry.
var jobKinds = []string{KindStencil, KindFibonacci, KindIrregular, KindTaskbench}

// JobSpec is the wire schema's request vocabulary; what its values may be on
// this node is validateSpec's business.
type JobSpec = wire.JobSpec

// maxIdempotencyKey bounds the key length; keys are routing metadata, not
// payload.
const maxIdempotencyKey = 128

// Fibonacci bounds. fib(92) is the largest index fitting uint64, but both
// halves of the workload are exponential — the sequential kernel in the
// cutoff, the task tree in (index − cutoff) — so the service bounds each:
// the cutoff at 32 (≈2M adds per leaf task) and the tree span at 25
// (≈242k tasks).
const (
	maxFibIndex  = 50
	maxFibCutoff = 32
	maxFibSpan   = 25
)

// Taskbench bounds: the grid width and generation count cap the task count
// (width × steps tasks), and the grain — kernel work units per task — caps
// single-task duration (~10ms of busy-work at the ceiling).
const (
	maxTaskbenchWidth = 4096
	maxTaskbenchGrain = 10_000_000
	// taskbenchGrainFloor is the adaptive-tuner minimum: ~a quarter
	// microsecond of busy-work, below which per-task overhead swamps the
	// kernel entirely.
	taskbenchGrainFloor = 256
)

// withDefaults fills unset optional fields.
func withDefaults(s JobSpec) JobSpec {
	if (s.Kind == KindStencil || s.Kind == KindTaskbench) && s.Steps == 0 {
		s.Steps = 4
	}
	if s.Kind == KindTaskbench && s.Pattern == "" {
		s.Pattern = taskbench.Stencil.String()
	}
	return s
}

// validateSpec reports the first problem with the spec, or nil. maxSize is
// the server's configured job-size ceiling.
func validateSpec(s *JobSpec, maxSize int) error {
	switch s.Kind {
	case KindStencil, KindFibonacci, KindIrregular, KindTaskbench:
	default:
		return fmt.Errorf("taskserve: unknown kind %q (want %s, %s, %s, or %s)",
			s.Kind, KindStencil, KindFibonacci, KindIrregular, KindTaskbench)
	}
	if s.Size < 1 {
		return fmt.Errorf("taskserve: size = %d", s.Size)
	}
	if s.Size > maxSize {
		return fmt.Errorf("taskserve: size %d exceeds server limit %d", s.Size, maxSize)
	}
	if s.Kind == KindFibonacci && s.Size > maxFibIndex {
		return fmt.Errorf("taskserve: fibonacci index %d exceeds limit %d", s.Size, maxFibIndex)
	}
	if s.Kind == KindTaskbench {
		// The taskbench grain counts kernel units, not points, so it has
		// its own ceiling independent of Size (the grid width).
		if s.Size > maxTaskbenchWidth {
			return fmt.Errorf("taskserve: taskbench width %d exceeds limit %d", s.Size, maxTaskbenchWidth)
		}
		if s.Grain < 0 || s.Grain > maxTaskbenchGrain {
			return fmt.Errorf("taskserve: taskbench grain %d out of [0,%d]", s.Grain, maxTaskbenchGrain)
		}
		if _, err := taskbench.ParsePattern(s.Pattern); err != nil {
			return fmt.Errorf("taskserve: %w", err)
		}
		if _, err := taskbench.ParseKernel(s.Kernel); err != nil {
			return fmt.Errorf("taskserve: %w", err)
		}
	} else {
		if s.Pattern != "" || s.Kernel != "" || s.Metg {
			return fmt.Errorf("taskserve: pattern/kernel/metg are taskbench-only fields")
		}
		if s.Grain < 0 || s.Grain > s.Size {
			return fmt.Errorf("taskserve: grain %d out of [0,%d]", s.Grain, s.Size)
		}
	}
	if s.Kind == KindFibonacci && s.Grain > 0 {
		if s.Grain > maxFibCutoff {
			return fmt.Errorf("taskserve: fibonacci cutoff %d exceeds limit %d", s.Grain, maxFibCutoff)
		}
		if s.Size-s.Grain > maxFibSpan {
			return fmt.Errorf("taskserve: fibonacci span %d−%d exceeds tree limit %d", s.Size, s.Grain, maxFibSpan)
		}
	}
	if (s.Kind == KindStencil || s.Kind == KindTaskbench) && (s.Steps < 1 || s.Steps > 10_000) {
		return fmt.Errorf("taskserve: steps = %d out of [1,10000]", s.Steps)
	}
	if s.DeadlineMillis < 0 {
		return fmt.Errorf("taskserve: deadline_ms = %d", s.DeadlineMillis)
	}
	if len(s.IdempotencyKey) > maxIdempotencyKey {
		return fmt.Errorf("taskserve: idempotency_key longer than %d bytes", maxIdempotencyKey)
	}
	if s.TraceContext != "" {
		if _, ok := trace.ParseSpanContext(s.TraceContext); !ok {
			return fmt.Errorf("taskserve: malformed trace_context %q", s.TraceContext)
		}
	}
	return nil
}

// grainBounds returns the adaptive-tuner clamp for one kind. Units follow
// the kind's grain semantics (points for stencil/irregular, the cutoff index
// for fibonacci).
func grainBounds(kind string, maxJobSize int) (lo, hi, start int) {
	switch kind {
	case KindFibonacci:
		return 1, maxFibCutoff, 20
	case KindTaskbench:
		// Units of kernel work per task: start around tens of microseconds
		// of busy-work, the fine side of the paper's sweet spot.
		return taskbenchGrainFloor, maxTaskbenchGrain, 50_000
	default:
		return 64, maxJobSize, 10_000
	}
}

// clampGrain restricts an adaptive recommendation to the job's own legal
// range; for fibonacci that includes the exponential-tree guard rails, and
// for taskbench the grain is kernel units, bounded independently of Size.
func clampGrain(kind string, g, size int) int {
	lo, hi := 1, size
	switch kind {
	case KindFibonacci:
		if hi > maxFibCutoff {
			hi = maxFibCutoff
		}
		if size-maxFibSpan > lo {
			lo = size - maxFibSpan
		}
	case KindTaskbench:
		lo, hi = taskbenchGrainFloor, maxTaskbenchGrain
	}
	if g < lo {
		return lo
	}
	if g > hi {
		return hi
	}
	return g
}

// runResult is a workload's result plus the number of dependency waves it
// ran, which feeds the adaptive tuner's parallel-slack signal and is not
// part of the served result.
type runResult struct {
	JobResult
	generations int
}

// runWorkload dispatches a job to its kind's runner. abort is polled by
// every task body; a true return makes the task cheap (skip the kernel, keep
// the dependency structure) so the group drains at queue speed.
func runWorkload(rt *taskrt.Runtime, spec JobSpec, grain int, abort func() bool) (*runResult, error) {
	switch spec.Kind {
	case KindStencil:
		return runStencilJob(rt, spec, grain, abort)
	case KindFibonacci:
		return runFibJob(rt, spec, grain, abort)
	case KindIrregular:
		return runIrregularJob(rt, spec, grain, abort)
	case KindTaskbench:
		return runTaskbenchJob(rt, spec, grain, abort)
	default:
		return nil, fmt.Errorf("taskserve: unknown kind %q", spec.Kind)
	}
}

// Bounds on the per-job METG search (spec.Metg): the probe grid is capped
// so the search costs milliseconds, not the job's full problem size.
const (
	metgProbeSteps = 4
	metgProbeWidth = 16
	metgProbes     = 4
)

// runTaskbenchJob executes a Steps × Size task grid of the requested
// dependence pattern through the taskbench engine, grain = kernel work
// units per task. With spec.Metg set it follows up with a bounded
// METG(50%) search on the same pattern so the job document carries the
// minimum effective task granularity next to the grain that served it.
func runTaskbenchJob(rt *taskrt.Runtime, spec JobSpec, grain int, abort func() bool) (*runResult, error) {
	pattern, err := taskbench.ParsePattern(spec.Pattern)
	if err != nil {
		return nil, err
	}
	kernel, err := taskbench.ParseKernel(spec.Kernel)
	if err != nil {
		return nil, err
	}
	cfg := taskbench.Config{
		Graph:  taskbench.Graph{Pattern: pattern, Steps: spec.Steps, Width: spec.Size, Seed: spec.Seed},
		Kernel: kernel,
		Grain:  grain,
		Abort:  abort,
	}
	res, err := taskbench.Run(rt, cfg)
	if err != nil {
		return nil, err
	}
	out := &runResult{
		JobResult: JobResult{
			Tasks:      res.Tasks,
			Checksum:   float64(res.Checksum % (1 << 52)), // keep exact in float64
			Pattern:    pattern.String(),
			Efficiency: res.Efficiency,
		},
		generations: spec.Steps,
	}
	if spec.Metg && !abort() {
		probe := cfg
		probe.Graph.Steps = minInt(probe.Graph.Steps, metgProbeSteps)
		probe.Graph.Width = minInt(probe.Graph.Width, metgProbeWidth)
		metg, err := taskbench.MeasureMETG(rt, probe, taskbench.MetgConfig{
			Probes: metgProbes,
			Abort:  abort,
		})
		if err != nil {
			return nil, err
		}
		out.MetgNs = metg.MetgNs
		out.MetgFound = metg.Found
	}
	return out, nil
}

// maxPooledRingPoints is the largest ring ringPool keeps. A bigger job
// allocates its rings for itself and leaves them to the GC, so one
// max_job_size job cannot pin 16 B per point in the pool until two GCs pass.
const maxPooledRingPoints = 4 << 20

// ringPool recycles stencil jobs' ring pairs: each entry is one *[]float64
// holding a job's two rings back to back. The init wave writes every point,
// so a recycled pair needs no zeroing.
var ringPool sync.Pool

// getRings returns a buffer of 2n points for one job's ring pair.
func getRings(n int) *[]float64 {
	if n <= maxPooledRingPoints {
		if buf, _ := ringPool.Get().(*[]float64); buf != nil && cap(*buf) >= 2*n {
			*buf = (*buf)[:2*n]
			return buf
		}
	}
	buf := make([]float64, 2*n)
	return &buf
}

// putRings hands a finished job's ring pair back, unless it is over the
// pool ceiling.
func putRings(buf *[]float64) {
	if cap(*buf) <= 2*maxPooledRingPoints {
		ringPool.Put(buf)
	}
}

// runStencilJob executes Size grid points of three-point heat diffusion on a
// ring for Steps steps, one task per partition per step with a group barrier
// between steps — the serving-path edition of the paper's HPX-Stencil
// benchmark, with grain = points per partition.
//
// Unlike stencil.Run it allocates no grid points per task: the job
// ping-pongs between two flat rings, and partition p is the subslice
// [p·grain, min(n,(p+1)·grain)) of each. The barrier after every wave orders
// all reads of a ring before the next wave overwrites it, and the wave state
// only changes between waves, on this goroutine, so one closure per
// partition serves every wave.
func runStencilJob(rt *taskrt.Runtime, spec JobSpec, grain int, abort func() bool) (*runResult, error) {
	n := spec.Size
	parts := (n + grain - 1) / grain
	buf := getRings(n)
	defer putRings(buf)
	j := &stencilJob{n: n, grain: grain, rings: [2][]float64{(*buf)[:n], (*buf)[n:]}, init: true, abort: abort}

	fns := make([]func(*taskrt.Context), parts)
	for p := range parts {
		fns[p] = func(*taskrt.Context) { j.run(p) }
	}
	// Each wave is one batch — the serving path fans out `parts` tasks per
	// wave, so the batched spawn is where the per-task spawn cost amortizes
	// — and every wave reuses the first wave's task records.
	g := rt.NewGroup()
	g.Run(fns)
	j.init = false
	steps := 0
	for ; steps < spec.Steps && !abort(); steps++ {
		g.Run(fns)
		j.src ^= 1
	}

	sum := 0.0
	for _, v := range j.rings[j.src] {
		sum += v
	}
	return &runResult{JobResult{Tasks: int64(parts) * int64(steps+1), Checksum: sum}, steps + 1}, nil
}

// stencilJob is the state one stencil job's tasks share. Only the job
// goroutine writes init and src, and only between waves.
type stencilJob struct {
	n, grain int
	rings    [2][]float64
	init     bool // the current wave writes the initial values into rings[0]
	src      int  // a step wave reads rings[src] and writes rings[src^1]
	abort    func() bool
}

// run is partition p's task body for the current wave. An aborted task
// keeps the wave's shape at queue speed: init writes zeros, a step copies
// its points forward unchanged.
func (j *stencilJob) run(p int) {
	lo, hi := p*j.grain, min(j.n, (p+1)*j.grain)
	if j.init {
		part := j.rings[0][lo:hi]
		if j.abort() {
			clear(part)
			return
		}
		for i := range part {
			part[i] = stencil.InitialValue(lo + i)
		}
		return
	}
	cur, next := j.rings[j.src], j.rings[j.src^1]
	if j.abort() {
		copy(next[lo:hi], cur[lo:hi])
		return
	}
	const alpha = 0.25
	stencil.HeatInto(cur[(lo-1+j.n)%j.n], cur[lo:hi], cur[hi%j.n], next[lo:hi], alpha)
}

// runFibJob computes fib(Size) as a recursive future tree with a sequential
// cutoff at index grain — the canonical fine-grained fork/join workload,
// with grain = how much of the tree one task absorbs.
func runFibJob(rt *taskrt.Runtime, spec JobSpec, grain int, abort func() bool) (*runResult, error) {
	var tasks atomic.Int64
	var build func(n int) *future.Future[uint64]
	build = func(n int) *future.Future[uint64] {
		if abort() {
			return future.Ready[uint64](0)
		}
		if n < grain || n < 2 {
			tasks.Add(1)
			return future.Async(rt, func() uint64 {
				if abort() {
					return 0
				}
				return fibSeq(n)
			})
		}
		left := build(n - 1)
		right := build(n - 2)
		tasks.Add(1) // the join task
		return future.Dataflow(rt, func(vs []uint64) uint64 {
			return vs[0] + vs[1]
		}, []*future.Future[uint64]{left, right})
	}
	v := build(spec.Size).Wait()
	gens := spec.Size - grain + 1
	if gens < 1 {
		gens = 1
	}
	return &runResult{JobResult{Tasks: tasks.Load(), Checksum: float64(v)}, gens}, nil
}

// fibSeq is the sequential kernel below the cutoff.
func fibSeq(n int) uint64 {
	if n < 2 {
		return uint64(n)
	}
	return fibSeq(n-1) + fibSeq(n-2)
}

// runIrregularJob executes a seeded random DAG totalling ~Size work points,
// grain points per task — the graph-analytics-shaped load the paper calls
// out as inherently fine-grained. The DAG generator is shared with the
// simulator; its completion hooks mutate generator state, so a mutex
// serializes them (task kernels themselves run fully parallel).
func runIrregularJob(rt *taskrt.Runtime, spec JobSpec, grain int, abort func() bool) (*runResult, error) {
	nTasks := spec.Size / grain
	if nTasks < 1 {
		nTasks = 1
	}
	dag := &workloads.RandomDAG{
		Tasks:     nTasks,
		MaxDeg:    3,
		MinPoints: maxInt(1, grain/2),
		MaxPoints: maxInt(2, grain*2),
		Seed:      spec.Seed,
	}
	if err := dag.Build(); err != nil {
		return nil, err
	}

	var (
		mu       sync.Mutex // serializes DAG bookkeeping (Roots/OnComplete)
		tasks    atomic.Int64
		checksum atomic.Uint64
		g        = rt.NewGroup()
	)
	var spawn func(st simpkg.Task)
	spawn = func(st simpkg.Task) {
		tasks.Add(1)
		g.Spawn(func(*taskrt.Context) {
			if !abort() {
				checksum.Add(burn(st.Points))
			}
			mu.Lock()
			dag.OnComplete(st, spawn)
			mu.Unlock()
		})
	}
	mu.Lock()
	dag.Roots(spawn)
	mu.Unlock()
	g.Wait()

	return &runResult{JobResult{
		Tasks:    tasks.Load(),
		Checksum: float64(checksum.Load() % (1 << 52)), // keep exact in float64
	}, 1}, nil
}

// burn is the irregular kernel: points iterations of xorshift, returning a
// value the compiler cannot elide.
func burn(points int) uint64 {
	x := uint64(points)*2654435761 + 1
	for i := 0; i < points; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
