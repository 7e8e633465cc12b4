// Package policyengine implements the runtime-adaptivity loop the paper's
// conclusion points at (Sec. VI): an APEX-prototype-style engine that
// consumes performance-counter samples, evaluates registered policies
// against the interval metrics, and drives actuators — adapting task grain
// size (this study's contribution) and throttling worker threads
// (Porterfield et al. [19], integrated with HPX per Sec. V).
//
// The engine is the single control plane: samples arrive from the telemetry
// Sampler (one sampling path, real timestamps), policies decide, and the
// engine actuates — or, under ModeAdvisory, records what it would have done.
// Every decision lands in the Recorder, so the whole loop is observable at
// /control/decisions and the /control/{decisions,actuations,vetoes}
// counters. The core is deliberately synchronous and deterministic:
// ObserveSample performs exactly one sample→decide→actuate cycle, so
// policies are unit-testable; Step wraps it over a fresh registry snapshot
// for callers without a sampler.
package policyengine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"taskgrain/internal/adaptive"
	"taskgrain/internal/counters"
	"taskgrain/internal/telemetry"
)

// Mode selects whether the engine applies decisions or only records them.
type Mode string

const (
	// ModeActuate applies every decision to its actuator (the default).
	ModeActuate Mode = "actuate"
	// ModeAdvisory records decisions without applying them — the
	// pre-control-plane alert-only behaviour.
	ModeAdvisory Mode = "advisory"
)

// ParseMode parses a control-mode name; the empty string means ModeActuate.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", string(ModeActuate):
		return ModeActuate, nil
	case string(ModeAdvisory):
		return ModeAdvisory, nil
	}
	return "", fmt.Errorf("policyengine: unknown control mode %q (want advisory, actuate)", s)
}

// String returns the mode's config-file spelling.
func (m Mode) String() string { return string(m) }

// Sample is one interval's worth of derived metrics handed to policies.
type Sample struct {
	// At is the sample timestamp (the telemetry sampler's clock).
	At time.Time
	// IdleRate is Eq. 1 recomputed over the interval.
	IdleRate float64
	// Tasks is the number of task first-phases executed in the interval.
	Tasks float64
	// Phases is the number of phases executed in the interval.
	Phases float64
	// PendingMissRate is interval pending misses / accesses (0 if none).
	PendingMissRate float64
	// ActiveWorkers is the current throttle level.
	ActiveWorkers int
	// MaxWorkers is the machine ceiling.
	MaxWorkers int
	// Inflight is the runtime's task backlog when the sample was taken
	// (Options.Inflight; 0 without one).
	Inflight int64
	// Grains is the current grain per registered kind (nil if none).
	Grains map[string]int
	// Elapsed is the interval length.
	Elapsed time.Duration
}

// Action is one adjustment a policy requests.
type Action struct {
	// SetGrain, when > 0, asks the GrainKind controller for a new grain.
	SetGrain int
	// GrainKind names the registered per-kind controller SetGrain moves.
	GrainKind string
	// SetActiveWorkers, when > 0, asks the throttle actuator for a level.
	SetActiveWorkers int
	// Note explains the decision in reports.
	Note string
}

// Policy inspects a sample and returns zero or more actions.
type Policy interface {
	// Name identifies the policy in logs.
	Name() string
	// Evaluate returns the actions for this interval.
	Evaluate(s Sample) []Action
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc struct {
	PolicyName string
	Fn         func(Sample) []Action
}

// Name implements Policy.
func (p PolicyFunc) Name() string { return p.PolicyName }

// Evaluate implements Policy.
func (p PolicyFunc) Evaluate(s Sample) []Action { return p.Fn(s) }

// Actuators connect the engine to the runtime's worker throttle. Nil members
// disable it; grain moves go to the controllers RegisterGrain hands over.
type Actuators struct {
	// SetActiveWorkers throttles the runtime (taskrt.Runtime.SetActiveWorkers).
	SetActiveWorkers func(int)
	// ActiveWorkers reports the current throttle level.
	ActiveWorkers func() int
}

// Options configures New.
type Options struct {
	// Registry is the counter registry samples derive from (required). The
	// Recorder registers its /control counters here.
	Registry *counters.Registry
	// MaxWorkers is the machine worker ceiling (required, >= 1).
	MaxWorkers int
	// Mode selects actuate (default) or advisory operation.
	Mode Mode
	// Actuators are the runtime knobs; nil members disable that action kind.
	Actuators Actuators
	// Inflight reports the runtime's task backlog (taskrt.Runtime.Inflight)
	// for Sample.Inflight; nil reads 0.
	Inflight func() int64
	// LogCapacity bounds the Recorder's decision log (default 128).
	LogCapacity int
}

// hintMaxObservations is the guardrail on externally pushed grain hints: a
// controller that has already consumed this many local observations (one
// per adaptive-grain job) has live evidence of its own and vetoes the hint.
const hintMaxObservations = 3

// Engine is the control plane core: it turns counter samples into interval
// metrics, runs policies over them, and routes the resulting actions to
// actuators — the runtime's worker throttle and any number of registered
// per-kind adaptive grain controllers.
type Engine struct {
	mu         sync.Mutex
	reg        *counters.Registry
	maxWorkers int
	mode       Mode
	act        Actuators
	inflight   func() int64
	policies   []Policy
	grains     map[string]*adaptive.Controller
	rec        *Recorder

	prev     counters.Snapshot
	prevTime time.Time
	steps    uint64
}

// New builds an engine over the registry of a running runtime.
func New(opts Options) (*Engine, error) {
	if opts.Registry == nil {
		return nil, fmt.Errorf("policyengine: nil registry")
	}
	if opts.MaxWorkers < 1 {
		return nil, fmt.Errorf("policyengine: maxWorkers = %d", opts.MaxWorkers)
	}
	mode, err := ParseMode(string(opts.Mode))
	if err != nil {
		return nil, err
	}
	return &Engine{
		reg:        opts.Registry,
		maxWorkers: opts.MaxWorkers,
		mode:       mode,
		act:        opts.Actuators,
		inflight:   opts.Inflight,
		grains:     map[string]*adaptive.Controller{},
		rec:        NewRecorder(opts.Registry, opts.LogCapacity),
		prev:       opts.Registry.Snapshot(),
		prevTime:   time.Now(),
	}, nil
}

// Mode reports whether the engine actuates or only advises.
func (e *Engine) Mode() Mode { return e.mode }

// Decisions returns a copy of the decision log, oldest first.
func (e *Engine) Decisions() []Decision { return e.rec.Log() }

// Steps reports how many samples the engine has consumed.
func (e *Engine) Steps() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.steps
}

// AddPolicy registers a policy; policies run in registration order and
// later actions win on conflicting knobs.
func (e *Engine) AddPolicy(p Policy) {
	e.mu.Lock()
	e.policies = append(e.policies, p)
	e.mu.Unlock()
}

// RegisterGrain hands a per-kind adaptive grain controller to the engine;
// the engine becomes its owner, policies see its grain in Sample.Grains,
// and actions carrying GrainKind actuate it.
func (e *Engine) RegisterGrain(kind string, ctl *adaptive.Controller) {
	e.mu.Lock()
	e.grains[kind] = ctl
	e.mu.Unlock()
}

// Grain returns the registered controller's current grain, or 0 if the kind
// is unknown.
func (e *Engine) Grain(kind string) int {
	e.mu.Lock()
	ctl := e.grains[kind]
	e.mu.Unlock()
	if ctl == nil {
		return 0
	}
	return ctl.Grain()
}

// GrainKinds returns the registered kinds, sorted.
func (e *Engine) GrainKinds() []string {
	e.mu.Lock()
	kinds := make([]string, 0, len(e.grains))
	for k := range e.grains {
		kinds = append(kinds, k)
	}
	e.mu.Unlock()
	sort.Strings(kinds)
	return kinds
}

// GrainStats reports the registered controller's observation and decision
// counts; ok is false for unknown kinds.
func (e *Engine) GrainStats(kind string) (observations, kept, grown, shrunk int, ok bool) {
	e.mu.Lock()
	ctl := e.grains[kind]
	e.mu.Unlock()
	if ctl == nil {
		return 0, 0, 0, 0, false
	}
	observations, kept, grown, shrunk = ctl.Stats()
	return observations, kept, grown, shrunk, true
}

// ObserveGrain feeds one per-job observation into the kind's controller and
// returns the new grain and the decision taken. Callers feed it only jobs
// that ran at the grain the controller chose. This is the fast per-job
// feedback edge of the loop; it actuates in both modes because it is the
// controller's own convergence walk, not an external override. Grow/shrink
// moves are recorded in the decision log.
func (e *Engine) ObserveGrain(kind string, obs adaptive.Observation) (int, adaptive.Decision) {
	e.mu.Lock()
	ctl := e.grains[kind]
	e.mu.Unlock()
	if ctl == nil {
		return 0, adaptive.Keep
	}
	grain, dec := ctl.Observe(obs)
	if dec != adaptive.Keep {
		e.rec.Record(Decision{
			At:     time.Now(),
			Policy: "adaptive",
			Action: fmt.Sprintf("grain[%s] %s %d -> %d (idle %.0f%%)", kind, dec, obs.PartitionSize, grain, obs.IdleRate*100),
			Mode:   DecisionActuated,
		})
	}
	return grain, dec
}

// ApplyHint applies an externally pushed grain (a mesh consensus hint) to
// the kind's controller, guarded so remote advice never overrides live local
// evidence: the hint is vetoed when the controller has already consumed
// hintMaxObservations observations, and merely recorded under ModeAdvisory.
// It returns whether the hint actuated and, if not, why.
func (e *Engine) ApplyHint(kind string, grain int, source string) (bool, string) {
	e.mu.Lock()
	ctl := e.grains[kind]
	mode := e.mode
	e.mu.Unlock()
	desc := fmt.Sprintf("hint[%s] grain -> %d (%s)", kind, grain, source)
	record := func(m, veto string) {
		e.rec.Record(Decision{At: time.Now(), Policy: "hint", Action: desc, Mode: m, Veto: veto})
	}
	switch {
	case ctl == nil:
		record(DecisionVetoed, "unknown grain kind")
		return false, "unknown grain kind"
	case grain < 1:
		record(DecisionVetoed, "invalid grain")
		return false, "invalid grain"
	case mode != ModeActuate:
		record(DecisionAdvisory, "")
		return false, "control_mode=advisory"
	}
	if n := ctl.Observations(); n >= hintMaxObservations {
		reason := fmt.Sprintf("local controller already steering (%d observations)", n)
		record(DecisionVetoed, reason)
		return false, reason
	}
	applied := ctl.SetGrain(grain)
	e.rec.Record(Decision{
		At:     time.Now(),
		Policy: "hint",
		Action: fmt.Sprintf("hint[%s] grain -> %d (%s, clamped %d)", kind, grain, source, applied),
		Mode:   DecisionActuated,
	})
	return true, ""
}

// sample derives the interval metrics between the previous sample and ts.
func (e *Engine) sample(ts telemetry.Sample) Sample {
	d := ts.Values.Sub(e.prev)
	elapsed := ts.At.Sub(e.prevTime)
	e.prev, e.prevTime = ts.Values, ts.At

	s := Sample{
		At:         ts.At,
		IdleRate:   counters.IdleRateOf(d.Get(counters.TimeExecTotal), d.Get(counters.TimeFuncTotal)),
		Tasks:      d.Get(counters.CountCumulative),
		Phases:     d.Get(counters.CountCumulativePhases),
		MaxWorkers: e.maxWorkers,
		Elapsed:    elapsed,
	}
	if acc := d.Get(counters.PendingAccesses); acc > 0 {
		s.PendingMissRate = d.Get(counters.PendingMisses) / acc
	}
	if e.act.ActiveWorkers != nil {
		s.ActiveWorkers = e.act.ActiveWorkers()
	} else {
		s.ActiveWorkers = e.maxWorkers
	}
	if e.inflight != nil {
		s.Inflight = e.inflight()
	}
	if len(e.grains) > 0 {
		s.Grains = make(map[string]int, len(e.grains))
		for k, c := range e.grains {
			s.Grains[k] = c.Grain()
		}
	}
	return s
}

// ObserveSample consumes one telemetry sample: it derives the interval
// metrics since the previous sample, evaluates every policy, and applies
// (ModeActuate) or records (ModeAdvisory) the resulting actions. This is
// the single sample→decide→actuate path; wire it to a telemetry.Sampler's
// OnSample hook for live use.
func (e *Engine) ObserveSample(ts telemetry.Sample) (Sample, []Action) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.sample(ts)
	e.steps++
	var applied []Action
	for _, p := range e.policies {
		for _, a := range p.Evaluate(s) {
			e.applyLocked(s.At, p.Name(), a)
			applied = append(applied, a)
		}
	}
	return s, applied
}

// applyLocked routes one action to its actuator under the engine mode,
// recording the outcome. Callers hold e.mu.
func (e *Engine) applyLocked(at time.Time, policy string, a Action) {
	record := func(mode, veto string) {
		desc := a.Note
		if desc == "" {
			desc = fmt.Sprintf("grain=%d workers=%d", a.SetGrain, a.SetActiveWorkers)
		}
		e.rec.Record(Decision{At: at, Policy: policy, Action: desc, Mode: mode, Veto: veto})
	}
	if a.SetGrain > 0 {
		ctl := e.grains[a.GrainKind]
		switch {
		case e.mode != ModeActuate:
			record(DecisionAdvisory, "")
		case ctl != nil:
			ctl.SetGrain(a.SetGrain)
			record(DecisionActuated, "")
		default:
			record(DecisionVetoed, "unknown grain kind "+a.GrainKind)
		}
	}
	if a.SetActiveWorkers > 0 {
		switch {
		case e.mode != ModeActuate:
			record(DecisionAdvisory, "")
		case e.act.SetActiveWorkers != nil:
			e.act.SetActiveWorkers(a.SetActiveWorkers)
			record(DecisionActuated, "")
		default:
			record(DecisionVetoed, "no throttle actuator")
		}
	}
}

// Step performs one cycle over a fresh registry snapshot — the synchronous
// entry point for tests, examples, and callers without a telemetry sampler.
func (e *Engine) Step() (Sample, []Action) {
	return e.ObserveSample(telemetry.Sample{At: time.Now(), Values: e.reg.Snapshot()})
}
