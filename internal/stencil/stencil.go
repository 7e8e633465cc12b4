// Package stencil implements the paper's benchmark, HPX-Stencil
// (1d_stencil_4): one-dimensional heat diffusion over a ring of grid points,
// split into partitions, each partition-timestep expressed as one dataflow
// task whose inputs are the three closest partitions of the previous time
// step (Fig. 2). The number of grid points per partition is the benchmark's
// grain-size control knob: "by changing the number of data points in each
// partition … we can change the number of calculations contained in each
// future" (Sec. I-C).
//
// The package provides three executions of the same workload:
//
//   - Run: the futurized native execution on a taskrt.Runtime, exactly
//     mirroring the HPX benchmark's dataflow structure;
//   - Reference: a sequential in-place solver used as the correctness
//     oracle;
//   - NewSimWorkload: the dependency DAG alone, for the discrete-event
//     simulator that regenerates the paper's multi-core figures.
//
// HeatInto is the per-partition kernel on its own, writing into the
// caller's buffer; Run's tasks and the serving runner in taskserve share it.
package stencil

import (
	"fmt"

	"taskgrain/internal/future"
	"taskgrain/internal/sim"
	"taskgrain/internal/taskrt"
)

// Partition is one contiguous block of grid points.
type Partition []float64

// Config describes one stencil experiment.
type Config struct {
	// TotalPoints is the ring size (the paper uses 100,000,000).
	TotalPoints int
	// PointsPerPartition is the grain-size knob (160 … TotalPoints).
	PointsPerPartition int
	// TimeSteps is the number of diffusion steps (50; 5 on Xeon Phi).
	TimeSteps int
	// Alpha is the diffusion coefficient k·dt/dx² (< 0.5 for stability).
	// Defaults to 0.25 when zero.
	Alpha float64
}

// Partitions returns the partition count: ceil(TotalPoints/PointsPerPartition).
func (c *Config) Partitions() int {
	return (c.TotalPoints + c.PointsPerPartition - 1) / c.PointsPerPartition
}

// PointsOf returns the size of partition p (the last partition absorbs the
// remainder when the partition size does not divide the ring).
func (c *Config) PointsOf(p int) int {
	np := c.Partitions()
	if p == np-1 {
		return c.TotalPoints - (np-1)*c.PointsPerPartition
	}
	return c.PointsPerPartition
}

// alpha returns the effective diffusion coefficient.
func (c *Config) alpha() float64 {
	if c.Alpha == 0 {
		return 0.25
	}
	return c.Alpha
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	switch {
	case c.TotalPoints < 1:
		return fmt.Errorf("stencil: TotalPoints = %d", c.TotalPoints)
	case c.PointsPerPartition < 1 || c.PointsPerPartition > c.TotalPoints:
		return fmt.Errorf("stencil: PointsPerPartition = %d out of [1,%d]",
			c.PointsPerPartition, c.TotalPoints)
	case c.TimeSteps < 0:
		return fmt.Errorf("stencil: TimeSteps = %d", c.TimeSteps)
	case c.alpha() <= 0 || c.alpha() > 0.5:
		return fmt.Errorf("stencil: Alpha = %v not in (0,0.5]", c.alpha())
	}
	return nil
}

// InitialValue is u₀(i): the initial temperature of global grid point i.
// HPX-Stencil initializes each point to its index.
func InitialValue(i int) float64 { return float64(i) }

// initPartition materializes partition p's initial data.
func initPartition(c Config, p int) Partition {
	n := c.PointsOf(p)
	base := p * c.PointsPerPartition
	part := make(Partition, n)
	for i := range part {
		part[i] = InitialValue(base + i)
	}
	return part
}

// heatPoint applies the three-point heat kernel.
func heatPoint(left, middle, right, alpha float64) float64 {
	return middle + alpha*(left-2*middle+right)
}

// heatPart computes partition's next time step from the three input
// partitions of the previous step (left, middle, right neighbours on the
// ring) — the body of each dataflow task.
func heatPart(left, middle, right Partition, alpha float64) Partition {
	next := make(Partition, len(middle))
	HeatInto(left[len(left)-1], middle, right[0], next, alpha)
	return next
}

// HeatInto writes one heat step of mid into out, given the ring values just
// left and right of mid. out must have len(mid) points and must not overlap
// mid; nothing is allocated, so a caller that owns its buffers (the serving
// runner's ping-pong rings) pays only the kernel.
func HeatInto(left float64, mid []float64, right float64, out []float64, alpha float64) {
	n := len(mid)
	out = out[:n]
	if n == 1 {
		out[0] = heatPoint(left, mid[0], right, alpha)
		return
	}
	out[0] = heatPoint(left, mid[0], mid[1], alpha)
	for i := 1; i < n-1; i++ {
		out[i] = heatPoint(mid[i-1], mid[i], mid[i+1], alpha)
	}
	out[n-1] = heatPoint(mid[n-2], mid[n-1], right, alpha)
}

// Solution is the final state of a stencil run.
type Solution struct {
	Config Config
	// Final holds the partitions after TimeSteps steps.
	Final []Partition
}

// Flatten concatenates the final partitions into the full ring.
func (s *Solution) Flatten() []float64 {
	out := make([]float64, 0, s.Config.TotalPoints)
	for _, p := range s.Final {
		out = append(out, p...)
	}
	return out
}

// Sum returns the total heat, conserved on a ring by the symmetric kernel.
func (s *Solution) Sum() float64 {
	t := 0.0
	for _, p := range s.Final {
		for _, v := range p {
			t += v
		}
	}
	return t
}

// Run executes the futurized benchmark on rt: partition initialization via
// Async, then one Dataflow task per partition-timestep wired to the three
// dependency partitions of the previous step, exactly as in 1d_stencil_4.
// The caller must have started rt.
func Run(rt *taskrt.Runtime, cfg Config) (*Solution, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	np := cfg.Partitions()
	alpha := cfg.alpha()

	// The init wave fans out one independent task per partition — spawn it
	// as a single batch so the whole wave pays one inflight add and one wake.
	initFns := make([]func() Partition, np)
	for p := 0; p < np; p++ {
		p := p
		initFns[p] = func() Partition { return initPartition(cfg, p) }
	}
	cur := future.AsyncBatch(rt, initFns)
	for s := 0; s < cfg.TimeSteps; s++ {
		next := make([]*future.Future[Partition], np)
		for p := 0; p < np; p++ {
			left := cur[(p-1+np)%np]
			mid := cur[p]
			right := cur[(p+1)%np]
			next[p] = future.Dataflow(rt, func(vs []Partition) Partition {
				return heatPart(vs[0], vs[1], vs[2], alpha)
			}, []*future.Future[Partition]{left, mid, right})
		}
		cur = next
	}
	finals := future.WhenAll(cur).Wait()
	return &Solution{Config: cfg, Final: finals}, nil
}

// Reference solves the same problem sequentially over the flat ring; it is
// the correctness oracle for both the native run and property tests.
func Reference(cfg Config) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.TotalPoints
	alpha := cfg.alpha()
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = InitialValue(i)
	}
	next := make([]float64, n)
	for s := 0; s < cfg.TimeSteps; s++ {
		for i := 0; i < n; i++ {
			next[i] = heatPoint(cur[(i-1+n)%n], cur[i], cur[(i+1)%n], alpha)
		}
		cur, next = next, cur
	}
	return cur, nil
}

// Placement selects how the DAG's tasks are placed on workers.
type Placement int

// Placement strategies.
const (
	// RoundRobin lets the scheduler place each task on the next queue (the
	// HPX default this study ran with).
	RoundRobin Placement = iota
	// OwnerComputes pins partition p's tasks to worker p mod cores every
	// step — the locality-preserving placement NUMA-aware schedulers aim
	// for; stealing still rebalances transient skew.
	OwnerComputes
)

// NewSimWorkload builds the benchmark's dependency DAG for the simulator:
// task (s,p) for step s in 1..TimeSteps becomes ready when its (up to
// three) distinct dependency partitions of step s−1 have completed; step-0
// tasks are the partition initializations and form the roots.
func NewSimWorkload(cfg Config) (*SimWorkload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SimWorkload{cfg: cfg, np: cfg.Partitions(), waiting: make(map[int][]int8)}, nil
}

// SimWorkload implements sim.Workload for the stencil DAG.
type SimWorkload struct {
	cfg Config
	np  int
	// Place selects task placement (default RoundRobin).
	Place Placement
	// waiting[s][p] counts unmet dependencies of task (s,p); step rows are
	// created lazily and dropped once every task of the row was emitted.
	waiting map[int][]int8
	emitted map[int]int
}

// TotalTasks returns the number of tasks the DAG will emit:
// partitions · (steps + 1), counting the initialization step.
func (w *SimWorkload) TotalTasks() int64 {
	return int64(w.np) * int64(w.cfg.TimeSteps+1)
}

// taskID packs (step, partition).
func (w *SimWorkload) taskID(step, p int) int64 { return int64(step)*int64(w.np) + int64(p) }

// unpack splits a task ID into (step, partition).
func (w *SimWorkload) unpack(id int64) (step, p int) {
	return int(id / int64(w.np)), int(id % int64(w.np))
}

// distinctDeps returns how many distinct partitions {p−1,p,p+1} mod np span.
func (w *SimWorkload) distinctDeps() int8 {
	switch {
	case w.np >= 3:
		return 3
	case w.np == 2:
		return 2
	default:
		return 1
	}
}

// hintOf returns the placement hint for partition p.
func (w *SimWorkload) hintOf(p int) int {
	if w.Place == OwnerComputes {
		return p
	}
	return -1
}

// Roots implements sim.Workload: the step-0 initialization tasks.
func (w *SimWorkload) Roots(emit func(sim.Task)) {
	if w.emitted == nil {
		w.emitted = make(map[int]int)
	}
	for p := 0; p < w.np; p++ {
		emit(sim.Task{ID: w.taskID(0, p), Points: w.cfg.PointsOf(p), Hint: w.hintOf(p)})
	}
	w.emitted[0] = w.np
}

// OnComplete implements sim.Workload: completing (s,p) satisfies one
// dependency of each of (s+1, p−1), (s+1, p), (s+1, p+1).
func (w *SimWorkload) OnComplete(t sim.Task, emit func(sim.Task)) {
	s, p := w.unpack(t.ID)
	if s >= w.cfg.TimeSteps {
		return // final step: nothing depends on it
	}
	nextStep := s + 1
	row, ok := w.waiting[nextStep]
	if !ok {
		row = make([]int8, w.np)
		d := w.distinctDeps()
		for i := range row {
			row[i] = d
		}
		w.waiting[nextStep] = row
	}
	for _, q := range w.dependents(p) {
		row[q]--
		if row[q] == 0 {
			emit(sim.Task{ID: w.taskID(nextStep, q), Points: w.cfg.PointsOf(q), Hint: w.hintOf(q)})
			w.emitted[nextStep]++
		}
	}
	if w.emitted[nextStep] == w.np {
		delete(w.waiting, nextStep)
		delete(w.emitted, s) // the previous row's bookkeeping is finished too
	}
}

// dependents lists the distinct partitions whose next-step task consumes
// partition p.
func (w *SimWorkload) dependents(p int) []int {
	switch {
	case w.np >= 3:
		return []int{(p - 1 + w.np) % w.np, p, (p + 1) % w.np}
	case w.np == 2:
		return []int{(p + 1) % 2, p}
	default:
		return []int{0}
	}
}
