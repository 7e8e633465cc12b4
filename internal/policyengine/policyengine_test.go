package policyengine

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskgrain/internal/adaptive"
	"taskgrain/internal/counters"
	"taskgrain/internal/taskrt"
	"taskgrain/internal/telemetry"
)

// fakeRegistry builds a registry with settable raw counters.
type fakeCounters struct {
	reg                  *counters.Registry
	exec, fn, tasks, ph  *counters.Cumulative
	pendingAcc, pendingM *counters.Cumulative
}

func newFake(t *testing.T) *fakeCounters {
	t.Helper()
	f := &fakeCounters{
		reg:        counters.NewRegistry(),
		exec:       counters.NewCumulative(counters.TimeExecTotal),
		fn:         counters.NewCumulative(counters.TimeFuncTotal),
		tasks:      counters.NewCumulative(counters.CountCumulative),
		ph:         counters.NewCumulative(counters.CountCumulativePhases),
		pendingAcc: counters.NewCumulative(counters.PendingAccesses),
		pendingM:   counters.NewCumulative(counters.PendingMisses),
	}
	for _, c := range []counters.Counter{f.exec, f.fn, f.tasks, f.ph, f.pendingAcc, f.pendingM} {
		f.reg.MustRegister(c)
	}
	return f
}

// interval simulates one interval with the given idle rate and task count.
func (f *fakeCounters) interval(idle float64, tasks int64) {
	const fnNs = 1_000_000
	f.fn.Add(fnNs)
	f.exec.Add(int64(float64(fnNs) * (1 - idle)))
	f.tasks.Add(tasks)
	f.ph.Add(tasks)
	f.pendingAcc.Add(tasks * 2)
	f.pendingM.Add(tasks)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{MaxWorkers: 4}); err == nil {
		t.Error("nil registry accepted")
	}
	if _, err := New(Options{Registry: counters.NewRegistry()}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := New(Options{Registry: counters.NewRegistry(), MaxWorkers: 4, Mode: "bogus"}); err == nil {
		t.Error("bogus mode accepted")
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"": ModeActuate, "actuate": ModeActuate, "advisory": ModeAdvisory} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("passive"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestSampleDerivation(t *testing.T) {
	f := newFake(t)
	var active atomic.Int64
	active.Store(4)
	e, err := New(Options{Registry: f.reg, MaxWorkers: 8, Actuators: Actuators{
		ActiveWorkers: func() int { return int(active.Load()) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	f.interval(0.25, 100)
	s, actions := e.Step()
	if len(actions) != 0 {
		t.Fatalf("no policies but actions = %v", actions)
	}
	if s.IdleRate < 0.24 || s.IdleRate > 0.26 {
		t.Errorf("idle = %v", s.IdleRate)
	}
	if s.Tasks != 100 || s.Phases != 100 {
		t.Errorf("tasks/phases = %v/%v", s.Tasks, s.Phases)
	}
	if s.PendingMissRate != 0.5 {
		t.Errorf("miss rate = %v", s.PendingMissRate)
	}
	if s.ActiveWorkers != 4 || s.MaxWorkers != 8 {
		t.Errorf("sample = %+v", s)
	}
	if s.At.IsZero() {
		t.Error("sample has no timestamp")
	}
	// Second step over an empty interval: zero tasks, zero idle.
	s2, _ := e.Step()
	if s2.Tasks != 0 || s2.IdleRate != 0 {
		t.Errorf("empty interval sample = %+v", s2)
	}
}

// TestEngineObservesSamplerSamples drives the engine the way the daemons
// do: from the telemetry sampler's OnSample hook, so the telemetry ring and
// the policy loop share one sampling path and one set of timestamps.
func TestEngineObservesSamplerSamples(t *testing.T) {
	f := newFake(t)
	e, err := New(Options{Registry: f.reg, MaxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var last atomic.Value // Sample
	e.AddPolicy(PolicyFunc{PolicyName: "probe", Fn: func(s Sample) []Action {
		last.Store(s)
		return nil
	}})
	sampler := telemetry.NewSampler(f.reg, telemetry.Config{
		Interval: time.Hour, // manual SampleNow only
		OnSample: func(ts telemetry.Sample) { e.ObserveSample(ts) },
	})
	f.interval(0.50, 40)
	sampler.SampleNow()
	s, ok := last.Load().(Sample)
	if !ok {
		t.Fatal("policy never saw a sample")
	}
	if s.Tasks != 40 || s.IdleRate < 0.49 || s.IdleRate > 0.51 {
		t.Fatalf("sampler-sourced sample = %+v", s)
	}
	if got, ok := sampler.Ring().Latest(); !ok || !s.At.Equal(got.At) {
		t.Fatalf("engine timestamp %v != ring timestamp %v (ok=%v)", s.At, got.At, ok)
	}
	if e.Steps() != 1 {
		t.Fatalf("steps = %d", e.Steps())
	}
}

func TestThrottlePolicyDirections(t *testing.T) {
	p := &ThrottlePolicy{}
	// High idle → throttle down.
	acts := p.Evaluate(Sample{IdleRate: 0.9, ActiveWorkers: 8, MaxWorkers: 8})
	if len(acts) != 1 || acts[0].SetActiveWorkers != 7 {
		t.Fatalf("down actions = %+v", acts)
	}
	// Low idle → release.
	acts = p.Evaluate(Sample{IdleRate: 0.05, ActiveWorkers: 4, MaxWorkers: 8})
	if len(acts) != 1 || acts[0].SetActiveWorkers != 5 {
		t.Fatalf("up actions = %+v", acts)
	}
	// In band → nothing.
	if acts = p.Evaluate(Sample{IdleRate: 0.4, ActiveWorkers: 4, MaxWorkers: 8}); len(acts) != 0 {
		t.Fatalf("band actions = %+v", acts)
	}
	// Floors and ceilings.
	if acts = p.Evaluate(Sample{IdleRate: 0.9, ActiveWorkers: 1, MaxWorkers: 8}); len(acts) != 0 {
		t.Fatalf("floor actions = %+v", acts)
	}
	if acts = p.Evaluate(Sample{IdleRate: 0.05, ActiveWorkers: 8, MaxWorkers: 8}); len(acts) != 0 {
		t.Fatalf("ceiling actions = %+v", acts)
	}
}

func TestThrottleConfigValidate(t *testing.T) {
	if err := (ThrottleConfig{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ThrottleConfig{LowIdle: 0.7, HighIdle: 0.6}).Validate(); err == nil {
		t.Error("inverted band accepted")
	}
	if err := (ThrottleConfig{HighIdle: 1.5}).Validate(); err == nil {
		t.Error("HighIdle >= 1 accepted")
	}
}

func TestEngineAppliesActions(t *testing.T) {
	f := newFake(t)
	var workers atomic.Int64
	workers.Store(8)
	e, err := New(Options{Registry: f.reg, MaxWorkers: 8, Actuators: Actuators{
		SetActiveWorkers: func(n int) { workers.Store(int64(n)) },
		ActiveWorkers:    func() int { return int(workers.Load()) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := adaptive.NewController(adaptive.Config{MinPartition: 100, MaxPartition: 1 << 20}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterGrain("stencil1d", ctl)
	// A grain policy over the per-kind grains the sample carries: double
	// every kind while the interval sits on the overhead wall.
	e.AddPolicy(PolicyFunc{PolicyName: "grain", Fn: func(s Sample) []Action {
		if s.IdleRate <= 0.6 {
			return nil
		}
		var acts []Action
		for kind, g := range s.Grains {
			acts = append(acts, Action{SetGrain: 2 * g, GrainKind: kind, Note: "grow " + kind})
		}
		return acts
	}})
	e.AddPolicy(&ThrottlePolicy{})

	// Interval deep in the overhead wall: grain should grow AND the
	// throttle should pull a worker (idle 0.9 > 0.6).
	f.interval(0.9, 10000)
	_, acts := e.Step()
	if g := e.Grain("stencil1d"); g != 2000 {
		t.Fatalf("grain = %d after actions %+v", g, acts)
	}
	if workers.Load() != 7 {
		t.Fatalf("workers = %d after actions %+v", workers.Load(), acts)
	}
	if len(acts) != 2 {
		t.Fatalf("actions = %+v", acts)
	}
	for _, a := range acts {
		if a.Note == "" {
			t.Error("action without note")
		}
	}
	// Both decisions actuated and landed in the log and counters.
	log := e.Decisions()
	if len(log) != 2 {
		t.Fatalf("decision log = %+v", log)
	}
	for _, d := range log {
		if d.Mode != DecisionActuated || d.At.IsZero() {
			t.Errorf("decision = %+v", d)
		}
	}
	snap := f.reg.Snapshot()
	if snap.Get(ControlDecisions) != 2 || snap.Get(ControlActuations) != 2 || snap.Get(ControlVetoes) != 0 {
		t.Fatalf("control counters = %v/%v/%v",
			snap.Get(ControlDecisions), snap.Get(ControlActuations), snap.Get(ControlVetoes))
	}
}

// TestModeAdvisoryRecordsWithoutActuating pins the control_mode=advisory
// contract: decisions are logged and counted but no actuator moves.
func TestModeAdvisoryRecordsWithoutActuating(t *testing.T) {
	f := newFake(t)
	var workers atomic.Int64
	workers.Store(8)
	e, err := New(Options{Registry: f.reg, MaxWorkers: 8, Mode: ModeAdvisory, Actuators: Actuators{
		SetActiveWorkers: func(n int) { workers.Store(int64(n)) },
		ActiveWorkers:    func() int { return int(workers.Load()) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.AddPolicy(&ThrottlePolicy{})
	f.interval(0.9, 10000)
	_, acts := e.Step()
	if len(acts) != 1 {
		t.Fatalf("actions = %+v", acts)
	}
	if workers.Load() != 8 {
		t.Fatalf("advisory mode actuated: workers = %d", workers.Load())
	}
	log := e.Decisions()
	if len(log) != 1 || log[0].Mode != DecisionAdvisory {
		t.Fatalf("decision log = %+v", log)
	}
	snap := f.reg.Snapshot()
	if snap.Get(ControlDecisions) != 1 || snap.Get(ControlActuations) != 0 {
		t.Fatalf("control counters = %v/%v", snap.Get(ControlDecisions), snap.Get(ControlActuations))
	}
}

// TestEngineGrainControllers covers the engine-owned per-kind controllers:
// registration, per-job observation feedback, and hint guardrails.
func TestEngineGrainControllers(t *testing.T) {
	f := newFake(t)
	e, err := New(Options{Registry: f.reg, MaxWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := adaptive.NewController(adaptive.Config{MinPartition: 64, MaxPartition: 1 << 20}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterGrain("stencil1d", ctl)

	if g := e.Grain("stencil1d"); g != 10000 {
		t.Fatalf("grain = %d", g)
	}
	if g := e.Grain("nope"); g != 0 {
		t.Fatalf("unknown kind grain = %d", g)
	}
	if kinds := e.GrainKinds(); len(kinds) != 1 || kinds[0] != "stencil1d" {
		t.Fatalf("kinds = %v", kinds)
	}

	// A fresh controller accepts a hint, clamped to its bounds.
	applied, reason := e.ApplyHint("stencil1d", 4096, "test")
	if !applied || reason != "" {
		t.Fatalf("hint rejected: %v %q", applied, reason)
	}
	if g := e.Grain("stencil1d"); g != 4096 {
		t.Fatalf("grain after hint = %d", g)
	}
	if applied, _ = e.ApplyHint("stencil1d", 1, "test"); !applied {
		t.Fatal("clamping hint rejected")
	}
	if g := e.Grain("stencil1d"); g != 64 {
		t.Fatalf("grain not clamped to MinPartition: %d", g)
	}
	if applied, _ = e.ApplyHint("bogus", 100, "test"); applied {
		t.Fatal("unknown kind hint applied")
	}

	// Per-job observations steer and are recorded; after enough of them the
	// controller has live evidence and vetoes further hints.
	for i := 0; i < hintMaxObservations; i++ {
		e.ObserveGrain("stencil1d", adaptive.Observation{
			PartitionSize: e.Grain("stencil1d"), IdleRate: 0.9, Tasks: 10000, Cores: 8,
		})
	}
	obs, _, grown, _, ok := e.GrainStats("stencil1d")
	if !ok || obs != hintMaxObservations || grown == 0 {
		t.Fatalf("stats = obs %d grown %d ok %v", obs, grown, ok)
	}
	applied, reason = e.ApplyHint("stencil1d", 512, "test")
	if applied || !strings.Contains(reason, "observations") {
		t.Fatalf("hint not vetoed after local convergence: %v %q", applied, reason)
	}
	snap := f.reg.Snapshot()
	if snap.Get(ControlVetoes) < 2 { // unknown-kind + stale-hint vetoes
		t.Fatalf("vetoes = %v", snap.Get(ControlVetoes))
	}
}

// TestWatchdogPolicyEmitsGrainActions pins the watchdog→engine edge: engine
// samples pinned above tolerance with task flow become per-kind grow
// actions on the sample that fills the watchdog's minimum window, pinned
// samples without flow become shrink actions, samples with nothing on board
// move nothing, and the watchdog's window spaces successive moves.
func TestWatchdogPolicyEmitsGrainActions(t *testing.T) {
	base := time.Now()
	pinned := func(sec int, tasks float64, inflight int64, grains map[string]int) Sample {
		return Sample{
			At:       base.Add(time.Duration(sec) * time.Second),
			IdleRate: 0.95,
			Tasks:    tasks,
			Elapsed:  time.Second,
			Inflight: inflight,
			Grains:   grains,
		}
	}
	// run feeds n one-second samples to a fresh policy, checks that none but
	// the last moved anything, and returns the policy with the last
	// sample's actions.
	run := func(n int, tasks float64, inflight int64, grains map[string]int) (*WatchdogPolicy, []Action) {
		t.Helper()
		p := &WatchdogPolicy{Watchdog: telemetry.NewWatchdog(telemetry.WatchdogConfig{
			Subject:   "test",
			Window:    10 * time.Second,
			FlowFloor: 10,
		})}
		var acts []Action
		for sec := 0; sec < n; sec++ {
			if len(acts) != 0 {
				t.Fatalf("moved at sample %d, before the window held 3 samples: %+v", sec-1, acts)
			}
			acts = p.Evaluate(pinned(sec, tasks, inflight, grains))
		}
		return p, acts
	}

	// High flow → overhead wall → grow every kind, sorted.
	p, acts := run(3, 1000, 1, map[string]int{"fibonacci": 20, "stencil1d": 1000})
	if len(acts) != 2 {
		t.Fatalf("actions = %+v", acts)
	}
	if acts[0].GrainKind != "fibonacci" || acts[0].SetGrain != 40 ||
		acts[1].GrainKind != "stencil1d" || acts[1].SetGrain != 2000 {
		t.Fatalf("grow actions = %+v", acts)
	}
	// Cooldown: the same pinned alert must not fire again within a window.
	if again := p.Evaluate(pinned(3, 1000, 1, map[string]int{"stencil1d": 2000})); len(again) != 0 {
		t.Fatalf("cooldown violated: %+v", again)
	}
	// After the window it may move again.
	if later := p.Evaluate(pinned(13, 1000, 1, map[string]int{"stencil1d": 2000})); len(later) != 1 || later[0].SetGrain != 4000 {
		t.Fatalf("post-cooldown actions = %+v", later)
	}

	// Near-zero flow → starvation wall → shrink.
	if _, acts = run(3, 0.5, 1, map[string]int{"stencil1d": 1000}); len(acts) != 1 || acts[0].SetGrain != 500 {
		t.Fatalf("shrink actions = %+v", acts)
	}

	// Grain floor: a shrink at 1 emits nothing rather than a no-op.
	if _, acts = run(3, 0.5, 1, map[string]int{"fibonacci": 1}); len(acts) != 0 {
		t.Fatalf("floor actions = %+v", acts)
	}

	// Nothing on board: a pinned idle-rate is spare capacity, not a wall.
	if _, acts = run(5, 1000, 0, map[string]int{"stencil1d": 1000}); len(acts) != 0 {
		t.Fatalf("moved an idle runtime: %+v", acts)
	}
}

// TestWatchdogPolicyHoldsStillWithinAWindow: over seeded arbitrary sample
// streams — idle-rates either side of the threshold, any task flow, work on
// board or not, irregular intervals — the policy moves only while the
// watchdog fires, never moves twice within one watchdog window, and never
// emits a grain below 1.
func TestWatchdogPolicyHoldsStillWithinAWindow(t *testing.T) {
	const window = 2 * time.Second
	moves := 0
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := telemetry.NewWatchdog(telemetry.WatchdogConfig{Subject: "prop", Window: window, FlowFloor: 100})
		p := &WatchdogPolicy{Watchdog: w}
		grains := map[string]int{"a": 1 + rng.Intn(4096), "b": 1 + rng.Intn(4096)}
		at := time.Unix(1_000_000, 0)
		var lastMove time.Time
		for i := 0; i < 400; i++ {
			step := time.Duration(10+rng.Intn(190)) * time.Millisecond
			at = at.Add(step)
			idle := rng.Float64()
			if rng.Intn(8) > 0 {
				idle = 0.31 + 0.69*idle // mostly pinned, so the alert gets to fire
			}
			acts := p.Evaluate(Sample{
				At:       at,
				IdleRate: idle,
				Tasks:    float64(rng.Intn(50)),
				Elapsed:  step,
				Inflight: int64(rng.Intn(3)),
				Grains:   grains,
			})
			if len(acts) == 0 {
				continue
			}
			if !w.Current().Active {
				t.Fatalf("seed %d: moved while the watchdog was quiet: %+v", seed, acts)
			}
			if !lastMove.IsZero() && at.Sub(lastMove) < window {
				t.Fatalf("seed %d: moved %v after the previous move, inside the %v window", seed, at.Sub(lastMove), window)
			}
			lastMove = at
			next := map[string]int{"a": grains["a"], "b": grains["b"]}
			for _, a := range acts {
				if a.SetGrain < 1 {
					t.Fatalf("seed %d: grain %d below 1: %+v", seed, a.SetGrain, a)
				}
				next[a.GrainKind] = a.SetGrain
			}
			grains = next
			moves++
		}
	}
	if moves == 0 {
		t.Fatal("no stream ever moved a grain; the property was never exercised")
	}
}

// TestEngineWatchdogActuatesGrain wires watchdog, engine, and a registered
// controller together: the watchdog judges the intervals the engine derives
// from its own samples, and its grow verdict moves the controller's grain
// through the one engine path.
func TestEngineWatchdogActuatesGrain(t *testing.T) {
	f := newFake(t)
	e, err := New(Options{Registry: f.reg, MaxWorkers: 4, Inflight: func() int64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	ctl, _ := adaptive.NewController(adaptive.Config{MinPartition: 64, MaxPartition: 1 << 20}, 1000)
	e.RegisterGrain("stencil1d", ctl)
	w := telemetry.NewWatchdog(telemetry.WatchdogConfig{Subject: "test", Window: 10 * time.Second})
	e.AddPolicy(&WatchdogPolicy{Watchdog: w})

	// Three pinned intervals with task flow fill the watchdog's window and
	// fire on the overhead wall.
	base := time.Now()
	var acts []Action
	for i := 1; i <= 3; i++ {
		f.interval(0.95, 1000)
		_, acts = e.ObserveSample(telemetry.Sample{At: base.Add(time.Duration(i) * time.Second), Values: f.reg.Snapshot()})
	}
	if len(acts) != 1 {
		t.Fatalf("actions = %+v", acts)
	}
	if g := e.Grain("stencil1d"); g != 2000 {
		t.Fatalf("watchdog verdict did not actuate: grain = %d", g)
	}
	// The verdict is over the engine's own interval figures.
	if a := w.Current(); a.Samples != 3 || a.IdleRate < 0.949 || a.IdleRate > 0.951 {
		t.Fatalf("watchdog verdict %+v, want 3 engine intervals at idle 0.95", a)
	}
	log := e.Decisions()
	if len(log) != 1 || log[0].Policy != "watchdog" || log[0].Mode != DecisionActuated {
		t.Fatalf("decision log = %+v", log)
	}
}

func TestEngineWithLiveRuntimeThrottles(t *testing.T) {
	// Integration: an idle runtime (workers spinning with no work) must get
	// throttled down by the policy engine.
	rt := taskrt.New(taskrt.WithWorkers(4))
	rt.Start()
	defer rt.Shutdown()
	e, err := New(Options{Registry: rt.Counters(), MaxWorkers: 4, Actuators: Actuators{
		SetActiveWorkers: rt.SetActiveWorkers,
		ActiveWorkers:    rt.ActiveWorkers,
	}})
	if err != nil {
		t.Fatal(err)
	}
	e.AddPolicy(&ThrottlePolicy{Config: ThrottleConfig{HighIdle: 0.5, LowIdle: 0.01}})
	// Let the idle runtime accrue pure scheduler-loop time, then step.
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		e.Step()
	}
	if rt.ActiveWorkers() >= 4 {
		t.Fatalf("idle runtime not throttled: %d workers", rt.ActiveWorkers())
	}
	// Work still completes at the throttled level.
	var wg sync.WaitGroup
	wg.Add(100)
	for i := 0; i < 100; i++ {
		rt.Spawn(func(*taskrt.Context) { wg.Done() })
	}
	wg.Wait()
}
