// Package adaptive implements the paper's stated goal (Sec. VI): using the
// granularity metrics to adapt task grain size at runtime. The tuner
// consumes interval observations of the counters the study identified —
// idle-rate, task count, task duration — and steers the partition size
// toward the regime where neither thread-management overhead (left wall)
// nor starvation (right wall) dominates.
//
// The decision procedure encodes the paper's characterization directly:
//
//  1. Too few tasks to occupy the cores (n_t below a small multiple of n_c)
//     means the right wall — starvation/poor load balance — so the grain
//     shrinks regardless of idle-rate (idle-rate is high on both walls and
//     cannot disambiguate alone, Sec. IV-A).
//  2. Otherwise, an idle-rate above the tolerance threshold means the left
//     wall — per-task management overhead — so the grain grows.
//  3. Otherwise the grain is acceptable and is kept (hysteresis: the tuner
//     never oscillates inside the tolerance band).
package adaptive

import "fmt"

// Observation is one tuning interval's worth of measurements.
type Observation struct {
	// PartitionSize is the grain the interval ran with.
	PartitionSize int
	// IdleRate is Eq. 1 over the interval.
	IdleRate float64
	// Tasks is the parallel slack: how many tasks become runnable per
	// dependency generation (for the stencil, the partition count). This is
	// the signal that disambiguates the two idle-rate walls: starvation
	// shows as Tasks below a small multiple of Cores.
	Tasks float64
	// Cores is the number of worker threads.
	Cores int
}

// Config bounds and parameterizes a Tuner.
type Config struct {
	// MinPartition and MaxPartition clamp the recommendation.
	MinPartition, MaxPartition int
	// HighIdle is the idle-rate tolerance threshold (paper demonstrates
	// 0.30 on Haswell/28 cores). Default 0.30.
	HighIdle float64
	// MinTasksPerCore is the starvation floor: fewer runnable tasks per
	// core than this means the grain is too coarse. Default 4.
	MinTasksPerCore float64
	// Growth is the multiplicative step applied per adjustment. Default 2.
	Growth float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HighIdle == 0 {
		out.HighIdle = 0.30
	}
	if out.MinTasksPerCore == 0 {
		out.MinTasksPerCore = 4
	}
	if out.Growth == 0 {
		out.Growth = 2
	}
	return out
}

// Validate reports the first problem with the configuration, or nil.
func (c *Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.MinPartition < 1:
		return fmt.Errorf("adaptive: MinPartition = %d", d.MinPartition)
	case d.MaxPartition < d.MinPartition:
		return fmt.Errorf("adaptive: MaxPartition %d < MinPartition %d", d.MaxPartition, d.MinPartition)
	case d.HighIdle <= 0 || d.HighIdle >= 1:
		return fmt.Errorf("adaptive: HighIdle = %v not in (0,1)", d.HighIdle)
	case d.Growth <= 1:
		return fmt.Errorf("adaptive: Growth = %v must be > 1", d.Growth)
	case d.MinTasksPerCore <= 0:
		return fmt.Errorf("adaptive: MinTasksPerCore = %v", d.MinTasksPerCore)
	}
	return nil
}

// Decision explains one tuning step.
type Decision int

// Tuning decisions.
const (
	Keep   Decision = iota // inside the tolerance band
	Grow                   // left wall: overhead-bound, coarsen
	Shrink                 // right wall: starvation-bound, refine
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Keep:
		return "keep"
	case Grow:
		return "grow"
	case Shrink:
		return "shrink"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Tuner steers partition size from interval observations. Create with New.
type Tuner struct {
	cfg Config
}

// New builds a tuner; it returns an error for invalid configurations.
func New(cfg Config) (*Tuner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tuner{cfg: cfg.withDefaults()}
	return t, nil
}

// Next returns the recommended partition size for the next interval and the
// decision that produced it.
func (t *Tuner) Next(obs Observation) (int, Decision) {
	cur := clamp(obs.PartitionSize, t.cfg.MinPartition, t.cfg.MaxPartition)
	cores := obs.Cores
	if cores < 1 {
		cores = 1
	}
	floor := t.cfg.MinTasksPerCore * float64(cores)
	switch {
	case obs.Tasks < floor:
		// Right wall: not enough parallel slack to occupy the cores.
		next := clamp(int(float64(cur)/t.cfg.Growth), t.cfg.MinPartition, t.cfg.MaxPartition)
		if next == cur {
			return cur, Keep
		}
		return next, Shrink
	case obs.IdleRate > t.cfg.HighIdle && obs.Tasks/t.cfg.Growth >= floor:
		// Left wall: overhead-bound. The guard keeps growth from pushing
		// the parallel slack below the starvation floor, which is what
		// prevents oscillation at the boundary between the two walls.
		next := clamp(int(float64(cur)*t.cfg.Growth), t.cfg.MinPartition, t.cfg.MaxPartition)
		if next == cur {
			return cur, Keep
		}
		return next, Grow
	default:
		return cur, Keep
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Step records one iteration of Converge.
type Step struct {
	Observation Observation
	Decision    Decision
	Next        int
}

// Converge drives the tuner to a fixed point: measure(partition) produces
// an Observation, Next picks the following grain; iteration stops when the
// decision is Keep or after maxSteps. It returns the final partition size
// and the trace.
func (t *Tuner) Converge(start, maxSteps int, measure func(partition int) (Observation, error)) (int, []Step, error) {
	cur := clamp(start, t.cfg.MinPartition, t.cfg.MaxPartition)
	var trace []Step
	for i := 0; i < maxSteps; i++ {
		obs, err := measure(cur)
		if err != nil {
			return cur, trace, err
		}
		next, dec := t.Next(obs)
		trace = append(trace, Step{Observation: obs, Decision: dec, Next: next})
		if dec == Keep {
			return cur, trace, nil
		}
		cur = next
	}
	return cur, trace, fmt.Errorf("adaptive: no convergence within %d steps", maxSteps)
}
