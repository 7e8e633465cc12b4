package adaptive

import (
	"sync"
)

// Controller is the online form of the Tuner for long-running servers: a
// thread-safe holder of the "current best grain" for one workload class,
// updated from per-job counter observations as traffic flows. Where Converge
// drives a closed measure→adjust loop to a fixed point, a Controller is fed
// opportunistically — every completed job that ran at the controller's grain
// contributes one Observation and the next job without an explicit grain
// reads Grain().
type Controller struct {
	mu    sync.Mutex
	tuner *Tuner
	grain int

	observations int
	decisions    [3]int // indexed by Decision
}

// NewController builds a controller starting at grain start (clamped to the
// configured bounds).
func NewController(cfg Config, start int) (*Controller, error) {
	t, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Controller{
		tuner: t,
		grain: clamp(start, t.cfg.MinPartition, t.cfg.MaxPartition),
	}, nil
}

// Grain returns the grain the controller currently recommends.
func (c *Controller) Grain() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.grain
}

// Observe feeds one interval observation into the tuner and moves the
// recommended grain, returning the new grain and the decision taken.
// Observations made at a stale grain (because jobs overlapped) still steer
// correctly: the tuner's decision is relative to the observation's own
// PartitionSize, and the controller only moves its grain in the decided
// direction from its current value.
func (c *Controller) Observe(obs Observation) (int, Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next, dec := c.tuner.Next(obs)
	c.observations++
	if dec >= 0 && int(dec) < len(c.decisions) {
		c.decisions[dec]++
	}
	switch dec {
	case Keep:
		// The observed grain is fine; adopt it if we drifted elsewhere.
		c.grain = clamp(obs.PartitionSize, c.tuner.cfg.MinPartition, c.tuner.cfg.MaxPartition)
	default:
		c.grain = next
	}
	return c.grain, dec
}

// SetGrain forces the recommended grain, clamped to the configured bounds,
// and returns the grain actually adopted. This is the external-actuation
// entry point (control-plane hints, watchdog verdicts); observations made
// afterwards steer from the new value.
func (c *Controller) SetGrain(g int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.grain = clamp(g, c.tuner.cfg.MinPartition, c.tuner.cfg.MaxPartition)
	return c.grain
}

// Observations reports how many observations the controller has consumed.
func (c *Controller) Observations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observations
}

// Stats reports how many observations the controller has consumed and how
// often it kept, grew, and shrank the grain.
func (c *Controller) Stats() (observations, kept, grown, shrunk int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.observations, c.decisions[Keep], c.decisions[Grow], c.decisions[Shrink]
}
