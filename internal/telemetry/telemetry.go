// Package telemetry is the longitudinal-measurement layer over the counter
// substrate: where internal/counters answers "what is the reading now",
// telemetry answers "what has it been doing". A Sampler polls a counter
// Registry on a fixed interval into a fixed-capacity Ring of timestamped
// snapshots; windowed queries (last-N, delta- and rate-over-window against
// *real* elapsed time between sample stamps) turn the paper's Eq. 1–6
// counters into time series. Beside the ring sit the OpenMetrics exporter
// (openmetrics.go) and the idle-rate watchdog (watchdog.go), which evaluates
// the paper's ~30% tolerance threshold over a sliding window of the policy
// engine's interval readings.
//
// The ring is the same idea as HPX's queryable counter service plus Task
// Bench's longitudinal METG capture: without history, a point-in-time
// idle-rate cannot distinguish a transient from a node pinned against a
// wall of the U-curve.
package telemetry

import (
	"sync"
	"time"

	"taskgrain/internal/counters"
	"taskgrain/internal/loop"
)

// Sample is one timestamped registry snapshot.
type Sample struct {
	At     time.Time
	Values counters.Snapshot
}

// Ring is a fixed-capacity ring buffer of samples: pushing beyond capacity
// overwrites the oldest sample, so memory is bounded no matter how long the
// daemon runs. All methods are safe for concurrent use.
type Ring struct {
	mu   sync.Mutex
	buf  []Sample
	head int // next write position
	n    int // live samples (≤ len(buf))
}

// NewRing creates a ring holding at most capacity samples (minimum 2: a
// ring that cannot hold two samples cannot answer any interval query).
func NewRing(capacity int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	return &Ring{buf: make([]Sample, capacity)}
}

// Push appends one sample, overwriting the oldest when full.
func (r *Ring) Push(s Sample) {
	r.mu.Lock()
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of live samples.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Capacity returns the ring's fixed capacity.
func (r *Ring) Capacity() int { return len(r.buf) }

// Last returns up to n most-recent samples, oldest first.
func (r *Ring) Last(n int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.n {
		n = r.n
	}
	out := make([]Sample, 0, n)
	start := r.head - n
	for i := 0; i < n; i++ {
		out = append(out, r.buf[mod(start+i, len(r.buf))])
	}
	return out
}

// Latest returns the most recent sample, ok=false when the ring is empty.
func (r *Ring) Latest() (Sample, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Sample{}, false
	}
	return r.buf[mod(r.head-1, len(r.buf))], true
}

// Window returns the retained samples stamped within the last d (relative
// to the newest sample's stamp, not the caller's clock — a paused sampler
// still yields its final window), oldest first.
func (r *Ring) Window(d time.Duration) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	newest := r.buf[mod(r.head-1, len(r.buf))].At
	cutoff := newest.Add(-d)
	out := make([]Sample, 0, r.n)
	for i := 0; i < r.n; i++ {
		s := r.buf[mod(r.head-r.n+i, len(r.buf))]
		if !s.At.Before(cutoff) {
			out = append(out, s)
		}
	}
	return out
}

// Delta returns the change of one counter across the window — newest
// reading minus the oldest reading inside d — together with the real
// elapsed time between those two samples. ok=false when fewer than two
// samples fall inside the window.
func (r *Ring) Delta(name string, d time.Duration) (delta float64, elapsed time.Duration, ok bool) {
	w := r.Window(d)
	if len(w) < 2 {
		return 0, 0, false
	}
	first, last := w[0], w[len(w)-1]
	return last.Values.Get(name) - first.Values.Get(name),
		last.At.Sub(first.At), true
}

// Rate returns one counter's per-second rate of change over the window,
// computed against the real elapsed time between the bounding samples
// (never the nominal sampling interval — sampler jitter and scheduling
// delay would otherwise bias every rate). ok=false when the window holds
// fewer than two samples or zero elapsed time.
func (r *Ring) Rate(name string, d time.Duration) (perSecond float64, ok bool) {
	delta, elapsed, ok := r.Delta(name, d)
	if !ok || elapsed <= 0 {
		return 0, false
	}
	return delta / elapsed.Seconds(), true
}

// Point is one time-series observation of a single counter.
type Point struct {
	AtUnixNs int64   `json:"at_unix_ns"`
	Value    float64 `json:"value"`
}

// Series extracts one counter's last-n readings as points, oldest first.
func (r *Ring) Series(name string, n int) []Point {
	samples := r.Last(n)
	out := make([]Point, 0, len(samples))
	for _, s := range samples {
		out = append(out, Point{AtUnixNs: s.At.UnixNano(), Value: s.Values.Get(name)})
	}
	return out
}

func mod(i, n int) int { return ((i % n) + n) % n }

// Config parameterizes a Sampler.
type Config struct {
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// Capacity is the ring size in samples (default 600); the ring holds
	// Interval × Capacity of history.
	Capacity int
	// OnSample, when set, runs after each sample lands in the ring (on the
	// sampler goroutine) — the hook a node's policy engine observes from.
	OnSample func(Sample)
}

// Sampler polls a registry into a Ring on a fixed interval. Its loop counts
// itself on that registry as /loops{telemetry-sample}/.
type Sampler struct {
	reg      *counters.Registry
	ring     *Ring
	interval time.Duration
	onSample func(Sample)

	startOnce sync.Once
	meter     loop.Meter
	tick      *loop.Loop
}

// NewSampler builds a sampler over reg and registers its loop counters there.
func NewSampler(reg *counters.Registry, cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 600
	}
	s := &Sampler{
		reg:      reg,
		ring:     NewRing(cfg.Capacity),
		interval: cfg.Interval,
		onSample: cfg.OnSample,
		meter:    loop.NewMeter("telemetry-sample"),
	}
	s.meter.Register(reg)
	return s
}

// Ring returns the sample ring (shared with the sampler; safe to query
// concurrently).
func (s *Sampler) Ring() *Ring { return s.ring }

// Interval returns the nominal sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// SampleNow takes one sample synchronously, outside the timer loop — used
// at startup (so the ring is never empty once the daemon serves traffic)
// and by tests that cannot wait out wall-clock intervals.
func (s *Sampler) SampleNow() Sample {
	ts := s.reg.SnapshotAt()
	sample := Sample{At: ts.At, Values: ts.Values}
	s.ring.Push(sample)
	if s.onSample != nil {
		s.onSample(sample)
	}
	return sample
}

// Start takes an immediate first sample and launches the sampling loop.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		s.SampleNow()
		s.tick = s.meter.Every(s.interval, func() { s.SampleNow() })
	})
}

// Stop terminates the sampling loop and waits for it to exit; a sampler
// stopped before Start never starts. The ring remains queryable.
func (s *Sampler) Stop() {
	s.startOnce.Do(func() {}) // orders this read of s.tick after Start's write
	s.tick.Stop()
}
