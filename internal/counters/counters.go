// Package counters implements the performance-monitoring substrate of the
// runtime, mirroring the HPX performance counter framework the paper's
// methodology depends on (Sec. I-B, "HPX Performance Monitoring System"):
// first-class counters, each addressable by a unique symbolic name, readable
// at runtime by the application or by the runtime itself, and cheap enough
// to be updated on every task event.
//
// Counters used by the study (names kept HPX-compatible):
//
//	/threads/count/cumulative              tasks executed (n_t)
//	/threads/count/cumulative-phases       thread phases executed
//	/threads/time/exec-total               Σ t_exec (ns)
//	/threads/time/func-total               Σ t_func (ns)
//	/threads/idle-rate                     (Σt_func−Σt_exec)/Σt_func
//	/threads/time/average                  t_d = Σt_exec/n_t (ns)
//	/threads/time/average-overhead         t_o = (Σt_func−Σt_exec)/n_t (ns)
//	/threads/time/average-phase            Σt_exec/phases (ns)
//	/threads/time/average-phase-overhead   (Σt_func−Σt_exec)/phases (ns)
//	/threads/count/pending-accesses        pending-queue look-ups
//	/threads/count/pending-misses          pending-queue look-ups that failed
//	/threads/count/staged-accesses         staged-queue look-ups
//	/threads/count/staged-misses           staged-queue look-ups that failed
//	/threads/count/stolen                  tasks obtained from another worker
//	/threads/count/wake-signals            targeted wakes delivered to parked workers
//	/threads/count/wakeups                 parks that ended on a wake signal
//	/threads/count/park-timeouts           parks that ended on the timeout backstop
package counters

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Standard counter paths (HPX-compatible symbolic names).
const (
	CountCumulative       = "/threads/count/cumulative"
	CountCumulativePhases = "/threads/count/cumulative-phases"
	TimeExecTotal         = "/threads/time/exec-total"
	TimeFuncTotal         = "/threads/time/func-total"
	IdleRate              = "/threads/idle-rate"
	TimeAverage           = "/threads/time/average"
	TimeAverageOverhead   = "/threads/time/average-overhead"
	TimeAveragePhase      = "/threads/time/average-phase"
	TimeAveragePhaseOvh   = "/threads/time/average-phase-overhead"
	PendingAccesses       = "/threads/count/pending-accesses"
	PendingMisses         = "/threads/count/pending-misses"
	StagedAccesses        = "/threads/count/staged-accesses"
	StagedMisses          = "/threads/count/staged-misses"
	CountStolen           = "/threads/count/stolen"
	CountWakeSignals      = "/threads/count/wake-signals"
	CountWakeups          = "/threads/count/wakeups"
	CountParkTimeouts     = "/threads/count/park-timeouts"
)

// IdleRateOf computes Eq. 1, (Σt_func − Σt_exec) / Σt_func, over any
// interval from its two time totals in nanoseconds, clamped to [0, 1]. An
// interval with no scheduler time reports 0.
func IdleRateOf(execNs, funcNs float64) float64 {
	if funcNs <= 0 {
		return 0
	}
	return min(max((funcNs-execNs)/funcNs, 0), 1)
}

// Counter is a named, introspectable performance counter.
type Counter interface {
	// Name returns the counter's unique symbolic path.
	Name() string
	// Value returns the current reading. Cumulative counters return their
	// running total; derived counters compute their formula on demand.
	Value() float64
	// Reset zeroes the underlying state (derived counters reset nothing).
	Reset()
}

// Cumulative is a monotonically increasing atomic counter.
type Cumulative struct {
	name string
	v    atomic.Int64
}

// NewCumulative creates a cumulative counter with the given symbolic name.
func NewCumulative(name string) *Cumulative { return &Cumulative{name: name} }

// Name implements Counter.
func (c *Cumulative) Name() string { return c.name }

// Value implements Counter.
func (c *Cumulative) Value() float64 { return float64(c.v.Load()) }

// Raw returns the integral reading.
func (c *Cumulative) Raw() int64 { return c.v.Load() }

// Add increments the counter by d.
func (c *Cumulative) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Cumulative) Inc() { c.v.Add(1) }

// Reset implements Counter.
func (c *Cumulative) Reset() { c.v.Store(0) }

// Gauge is a settable instantaneous value.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge creates a gauge counter.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Name implements Counter.
func (g *Gauge) Name() string { return g.name }

// Value implements Counter.
func (g *Gauge) Value() float64 { return float64(g.v.Load()) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Reset implements Counter.
func (g *Gauge) Reset() { g.v.Store(0) }

// Derived computes its value from other counters on demand, like HPX's
// idle-rate and average-time counters.
type Derived struct {
	name string
	fn   func() float64
}

// NewDerived creates a derived counter evaluating fn at read time.
func NewDerived(name string, fn func() float64) *Derived {
	return &Derived{name: name, fn: fn}
}

// Name implements Counter.
func (d *Derived) Name() string { return d.name }

// Value implements Counter.
func (d *Derived) Value() float64 { return d.fn() }

// Reset implements Counter; derived counters own no state.
func (d *Derived) Reset() {}

// pad prevents false sharing between adjacent per-worker slots. 64 bytes
// covers the common x86 cache-line size; the slot itself is 8 bytes.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// PerWorker is a counter sharded across workers: each worker updates its own
// cache-line-padded slot without contention; Value aggregates. Individual
// worker readings remain available, matching HPX's per-queue counter
// instances ("individual counts are available for each pending queue").
type PerWorker struct {
	name  string
	slots []paddedInt64
}

// NewPerWorker creates a sharded counter for n workers.
func NewPerWorker(name string, n int) *PerWorker {
	return &PerWorker{name: name, slots: make([]paddedInt64, n)}
}

// Name implements Counter.
func (p *PerWorker) Name() string { return p.name }

// Value implements Counter: the sum over all workers.
func (p *PerWorker) Value() float64 { return float64(p.Total()) }

// Total returns the sum over all workers.
func (p *PerWorker) Total() int64 {
	var t int64
	for i := range p.slots {
		t += p.slots[i].v.Load()
	}
	return t
}

// Worker returns worker w's reading.
func (p *PerWorker) Worker(w int) int64 { return p.slots[w].v.Load() }

// Add increments worker w's slot by d.
func (p *PerWorker) Add(w int, d int64) { p.slots[w].v.Add(d) }

// Inc increments worker w's slot by one.
func (p *PerWorker) Inc(w int) { p.slots[w].v.Add(1) }

// Workers returns the number of shards.
func (p *PerWorker) Workers() int { return len(p.slots) }

// Reset implements Counter.
func (p *PerWorker) Reset() {
	for i := range p.slots {
		p.slots[i].v.Store(0)
	}
}

// pairSlot is one worker's pair on its own cache line.
type pairSlot struct {
	part, rest atomic.Int64
	// open is the clock instant an open rest interval began plus one, 0 when
	// none; seq is odd while CloseRest folds that interval into rest.
	open, seq atomic.Int64
	_         [32]byte
}

// Pair counts a per-worker whole split into two disjoint parts, part and
// rest, and exports it under two names: part, and whole = part + rest, in
// total and per worker instance. Registry.Snapshot reads each worker's
// slots once and derives both names from that one read, so part ≤ whole
// holds in every snapshot and in the delta of any two — which two
// independently updated counters cannot promise while workers run. The
// queue look-up counters are pairs (misses of accesses, the rest being
// hits), and so is Eq. 1's Σt_exec of Σt_func (the rest being scheduler
// time outside task phases).
type Pair struct {
	part, whole string
	// wholeGauge exports whole as a gauge without per-worker instances.
	wholeGauge bool
	// clock is the time base of open rest intervals (see OpenRest).
	clock func() int64
	slots []pairSlot
	// per-worker instance names, built once at registration
	partInst, wholeInst []string
}

// NewPair creates a pair over n workers exporting part and whole, both as
// monotonic counters with per-worker instances.
func NewPair(part, whole string, n int) *Pair {
	return &Pair{part: part, whole: whole, slots: make([]pairSlot, n)}
}

// WholeAsGauge makes p export whole the way a Derived counter is exported:
// as a gauge, with no per-worker instances. It returns p.
func (p *Pair) WholeAsGauge() *Pair {
	p.wholeGauge = true
	return p
}

// WithClock sets the clock OpenRest and CloseRest instants are read on (a
// monotonic nanosecond count). It returns p.
func (p *Pair) WithClock(clock func() int64) *Pair {
	p.clock = clock
	return p
}

// AddPart adds d to worker w's part.
func (p *Pair) AddPart(w int, d int64) { p.slots[w].part.Add(d) }

// AddRest adds d to worker w's rest.
func (p *Pair) AddRest(w int, d int64) { p.slots[w].rest.Add(d) }

// OpenRest starts an interval of worker w's rest at instant at (on the
// pair's clock), with everything before at already added. Readings add
// the interval live until CloseRest — for time a worker spends blocked,
// which would otherwise show up only when it ends. Only worker w's owner
// may open and close its interval.
func (p *Pair) OpenRest(w int, at int64) { p.slots[w].open.Store(at + 1) }

// CloseRest adds worker w's open interval, up to now on the pair's clock,
// to its rest and returns that instant. The clock is read inside the close
// so no reading can count the interval past it.
func (p *Pair) CloseRest(w int) int64 {
	s := &p.slots[w]
	s.seq.Add(1)
	at := p.clock()
	s.rest.Add(at - (s.open.Load() - 1))
	s.open.Store(0)
	s.seq.Add(1)
	return at
}

// Worker returns worker w's (part, whole), reading each slot once. An open
// rest interval counts up to the instant of the reading; the reading
// retries while the interval is being closed, so whole never runs
// backwards.
func (p *Pair) Worker(w int) (part, whole int64) {
	s := &p.slots[w]
	for {
		seq := s.seq.Load()
		if seq&1 != 0 {
			runtime.Gosched()
			continue
		}
		open := s.open.Load()
		pt, rest := s.part.Load(), s.rest.Load()
		if open != 0 {
			rest += p.clock() - (open - 1)
		}
		if s.seq.Load() == seq {
			return pt, pt + rest
		}
	}
}

// Totals returns the summed (part, whole) from one read of each slot.
func (p *Pair) Totals() (part, whole int64) {
	for w := range p.slots {
		a, b := p.Worker(w)
		part += a
		whole += b
	}
	return part, whole
}

// Reset zeroes every slot.
func (p *Pair) Reset() {
	for i := range p.slots {
		p.slots[i].part.Store(0)
		p.slots[i].rest.Store(0)
	}
}

// readInto stores the pair's totals and per-worker instances in s.
func (p *Pair) readInto(s Snapshot) {
	var part, whole int64
	for w := range p.slots {
		a, b := p.Worker(w)
		s[p.partInst[w]] = float64(a)
		if !p.wholeGauge {
			s[p.wholeInst[w]] = float64(b)
		}
		part += a
		whole += b
	}
	s[p.part], s[p.whole] = float64(part), float64(whole)
}

// pairView is one registered name of a Pair: its part or whole, in total
// (worker < 0) or for one worker.
type pairView struct {
	p      *Pair
	name   string
	worker int
	whole  bool
}

// Name implements Counter.
func (v *pairView) Name() string { return v.name }

// Value implements Counter.
func (v *pairView) Value() float64 {
	var part, whole int64
	if v.worker < 0 {
		part, whole = v.p.Totals()
	} else {
		part, whole = v.p.Worker(v.worker)
	}
	if v.whole {
		return float64(whole)
	}
	return float64(part)
}

// Reset implements Counter: it zeroes the whole pair.
func (v *pairView) Reset() { v.p.Reset() }

// Monotonic reports whether c only ever grows between resets: cumulative,
// per-worker and pair counters, except a pair's gauge-exported whole.
// Exporters type such counters as OpenMetrics counters, and audits check
// they never run backwards.
func Monotonic(c Counter) bool {
	switch c := c.(type) {
	case *Cumulative, *PerWorker:
		return true
	case *pairView:
		return !c.whole || !c.p.wholeGauge
	}
	return false
}

// Registry maps symbolic names to counters, providing the runtime-query
// interface the methodology relies on ("HPX counters are easily accessible
// through an API at runtime").
type Registry struct {
	mu       sync.RWMutex
	counters map[string]Counter
	pairs    []*Pair
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]Counter)}
}

// Register adds c under its name; registering a duplicate name is an error.
func (r *Registry) Register(c Counter) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.counters[c.Name()]; dup {
		return fmt.Errorf("counters: duplicate registration of %q", c.Name())
	}
	r.counters[c.Name()] = c
	return nil
}

// MustRegister registers c and panics on duplicate names; used during
// runtime construction where duplicates are programming errors.
func (r *Registry) MustRegister(c Counter) {
	if err := r.Register(c); err != nil {
		panic(err)
	}
}

// Get looks up a counter by exact name.
func (r *Registry) Get(name string) (Counter, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.counters[name]
	return c, ok
}

// Value reads a counter by name, returning ok=false if unregistered.
func (r *Registry) Value(name string) (float64, bool) {
	c, ok := r.Get(name)
	if !ok {
		return 0, false
	}
	return c.Value(), true
}

// Names returns all registered counter names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot reads every counter at (approximately) one instant.
//
// Weak-consistency contract: each counter is read once, in map-iteration
// order, with no global epoch (a Pair is the exception: both its names
// come from one read of its slots) — counters updated concurrently may be
// observed at slightly different moments within the same snapshot, so two
// counters in one Snapshot are individually exact but not mutually atomic
// (a derived ratio read here may disagree in the last digit with the same
// ratio recomputed from the raw counters of the same Snapshot). This is the
// HPX counter model: cheap lock-free reads, interval arithmetic done by the
// consumer. Consumers that turn deltas into rates should use SnapshotAt and
// divide by the *real* elapsed time between sample stamps, never by an
// assumed sampling interval.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snapshot, len(r.counters))
	for n, c := range r.counters {
		if _, ok := c.(*pairView); !ok {
			s[n] = c.Value()
		}
	}
	for _, p := range r.pairs {
		p.readInto(s)
	}
	return s
}

// TimedSnapshot pairs a Snapshot with the wall-clock instant the read
// started, so interval rates can be computed against real elapsed time.
type TimedSnapshot struct {
	At     time.Time
	Values Snapshot
}

// SnapshotAt reads every counter (same weak-consistency contract as
// Snapshot) and stamps the sample with the time the read began. The stamp
// is taken before the reads: a rate computed as (b.Values−a.Values)/
// (b.At−a.At) then attributes the read-skew inside each snapshot to the
// interval it actually occurred in.
func (r *Registry) SnapshotAt() TimedSnapshot {
	at := time.Now()
	return TimedSnapshot{At: at, Values: r.Snapshot()}
}

// Sub returns the per-counter difference t - prev with the real elapsed
// time between the two sample stamps.
func (t TimedSnapshot) Sub(prev TimedSnapshot) (Snapshot, time.Duration) {
	return t.Values.Sub(prev.Values), t.At.Sub(prev.At)
}

// ResetAll resets every registered counter.
func (r *Registry) ResetAll() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.Reset()
	}
}

// Snapshot is a point-in-time reading of all counters.
type Snapshot map[string]float64

// ResetMarker is the synthetic counter Sub adds when prev holds counters
// the newer snapshot no longer has: its value is the number of such
// counters. A counter can only vanish between snapshots when the registry
// (or the runtime behind it) was rebuilt — which also resets every reading
// to zero — so a consumer differencing across the discontinuity must not
// treat the interval as ordinary. Checking Get(ResetMarker) > 0 (or calling
// Resets for the names) is the signal.
const ResetMarker = "/snapshot/resets"

// Sub returns the per-counter difference s - prev, the interval reading used
// for dynamic measurements "calculated over any interval of interest"
// (Sec. II-A). Counters absent from prev are treated as zero there; derived
// ratio counters should be recomputed from differenced raw counters instead
// of differenced directly.
//
// Counters present in prev but missing from s (the registry was swapped or
// torn down between the snapshots) do not silently vanish: each appears in
// the output with an explicit zero delta, and the ResetMarker entry counts
// them so the discontinuity is detectable.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for n, v := range s {
		out[n] = v - prev[n]
	}
	var resets float64
	for n := range prev {
		if _, ok := s[n]; !ok {
			out[n] = 0
			resets++
		}
	}
	if resets > 0 {
		out[ResetMarker] = resets
	}
	return out
}

// Resets returns the sorted names present in prev but missing from s — the
// counters Sub flags via ResetMarker.
func (s Snapshot) Resets(prev Snapshot) []string {
	var out []string
	for n := range prev {
		if _, ok := s[n]; !ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Get returns the reading for name (0 if absent).
func (s Snapshot) Get(name string) float64 { return s[name] }

// NamesWithPrefix returns the sorted registered names beginning with prefix.
func (r *Registry) NamesWithPrefix(prefix string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for n := range r.counters {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// InstanceName derives the per-worker instance path of a /threads counter,
// following the HPX convention: "/threads/count/cumulative" for worker 3
// becomes "/threads{worker-thread#3}/count/cumulative". Names outside the
// /threads namespace gain a "{worker-thread#N}" suffix instead.
func InstanceName(base string, worker int) string {
	const ns = "/threads/"
	if strings.HasPrefix(base, ns) {
		return fmt.Sprintf("/threads{worker-thread#%d}/%s", worker, base[len(ns):])
	}
	return fmt.Sprintf("%s{worker-thread#%d}", base, worker)
}

// RegisterInstances registers one derived read-only counter per worker
// shard of pw, named per InstanceName — making individual queue/worker
// readings addressable exactly like HPX counter instances ("individual
// counts are available for each pending queue", Sec. II-A).
func (r *Registry) RegisterInstances(pw *PerWorker) error {
	for w := 0; w < pw.Workers(); w++ {
		w := w
		if err := r.Register(NewDerived(InstanceName(pw.Name(), w), func() float64 {
			return float64(pw.Worker(w))
		})); err != nil {
			return err
		}
	}
	return nil
}

// RegisterPair registers p's part and whole names, in total and per worker
// instance (named per InstanceName; none for a gauge whole), and has
// Snapshot read each worker's pair of slots once for all of them.
func (r *Registry) RegisterPair(p *Pair) error {
	n := len(p.slots)
	p.partInst, p.wholeInst = make([]string, n), make([]string, n)
	views := []*pairView{
		{p: p, name: p.part, worker: -1},
		{p: p, name: p.whole, worker: -1, whole: true},
	}
	for w := 0; w < n; w++ {
		p.partInst[w] = InstanceName(p.part, w)
		views = append(views, &pairView{p: p, name: p.partInst[w], worker: w})
		if !p.wholeGauge {
			p.wholeInst[w] = InstanceName(p.whole, w)
			views = append(views, &pairView{p: p, name: p.wholeInst[w], worker: w, whole: true})
		}
	}
	for _, v := range views {
		if err := r.Register(v); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.pairs = append(r.pairs, p)
	r.mu.Unlock()
	return nil
}
