package core

import (
	"fmt"
	"runtime"
	"time"

	"taskgrain/internal/costmodel"
	"taskgrain/internal/sim"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
)

// Engine executes the benchmark at a given grain size and core count and
// returns the raw counters. Two implementations exist: the discrete-event
// simulator (any platform, any core count) and the native runtime (real
// execution on the host).
type Engine interface {
	// Name identifies the engine in reports (e.g. "sim:haswell", "native").
	Name() string
	// MaxCores is the largest usable core count.
	MaxCores() int
	// Deterministic reports whether repeated runs are bit-identical (so a
	// single sample suffices).
	Deterministic() bool
	// Run executes one benchmark configuration.
	Run(cfg stencil.Config, cores int) (RawRun, error)
}

// SimEngine adapts the discrete-event simulator to Engine.
type SimEngine struct {
	Profile *costmodel.Profile
	Policy  sim.Policy
	// StagedBatch overrides the conversion batch (0 = default).
	StagedBatch int
}

// NewSimEngine returns a simulator engine for the named platform profile.
func NewSimEngine(profile *costmodel.Profile) *SimEngine {
	return &SimEngine{Profile: profile}
}

// Name implements Engine.
func (e *SimEngine) Name() string { return "sim:" + e.Profile.Name }

// MaxCores implements Engine.
func (e *SimEngine) MaxCores() int { return e.Profile.Cores }

// Deterministic implements Engine: the simulator is exactly reproducible.
func (e *SimEngine) Deterministic() bool { return true }

// Run implements Engine.
func (e *SimEngine) Run(cfg stencil.Config, cores int) (RawRun, error) {
	wl, err := stencil.NewSimWorkload(cfg)
	if err != nil {
		return RawRun{}, err
	}
	r, err := sim.Run(sim.Config{
		Profile:     e.Profile,
		Cores:       cores,
		StagedBatch: e.StagedBatch,
		Policy:      e.Policy,
	}, wl)
	if err != nil {
		return RawRun{}, err
	}
	return RawRun{
		ExecSeconds:     r.MakespanNs / 1e9,
		ExecTotalNs:     r.ExecTotalNs,
		FuncTotalNs:     r.FuncTotalNs,
		Tasks:           float64(r.Tasks),
		Cores:           cores,
		PendingAccesses: float64(r.PendingAccesses),
		PendingMisses:   float64(r.PendingMisses),
		StagedAccesses:  float64(r.StagedAccesses),
		StagedMisses:    float64(r.StagedMisses),
		Stolen:          float64(r.Stolen),
	}, nil
}

// NativeEngine runs the benchmark on the host via the taskrt runtime. Use
// worker counts up to the host's core count for meaningful timings.
type NativeEngine struct {
	// Policy selects the scheduling policy (default PriorityLocalFIFO).
	Policy taskrt.PolicyKind
	// NUMADomains configures the runtime topology (default 1).
	NUMADomains int
	// MaxWorkers caps the core counts offered (default: GOMAXPROCS).
	MaxWorkers int
	// OnRuntime, when set, observes each configuration's freshly started
	// runtime before the benchmark runs on it — the hook live-introspection
	// endpoints use to follow a sweep's current counter registry.
	OnRuntime func(*taskrt.Runtime)
}

// NewNativeEngine returns a native engine with host defaults.
func NewNativeEngine() *NativeEngine { return &NativeEngine{} }

// Name implements Engine.
func (e *NativeEngine) Name() string { return "native" }

// MaxCores implements Engine.
func (e *NativeEngine) MaxCores() int {
	if e.MaxWorkers > 0 {
		return e.MaxWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Deterministic implements Engine: real timings vary run to run.
func (e *NativeEngine) Deterministic() bool { return false }

// Run implements Engine.
func (e *NativeEngine) Run(cfg stencil.Config, cores int) (RawRun, error) {
	if cores < 1 {
		return RawRun{}, fmt.Errorf("core: native run with %d cores", cores)
	}
	domains := e.NUMADomains
	if domains < 1 {
		domains = 1
	}
	rt := taskrt.New(
		taskrt.WithWorkers(cores),
		taskrt.WithNUMADomains(domains),
		taskrt.WithPolicy(e.Policy),
	)
	rt.Start()
	if e.OnRuntime != nil {
		e.OnRuntime(rt)
	}
	start := time.Now()
	_, err := stencil.Run(rt, cfg)
	elapsed := time.Since(start)
	// Snapshot counters immediately after completion, before Shutdown, so
	// idle spinning between completion and teardown does not pollute t_func.
	snap := rt.Counters().Snapshot()
	rt.Shutdown()
	if err != nil {
		return RawRun{}, err
	}
	return RawRunFromSnapshot(snap, cores, elapsed), nil
}
