// Package taskserve exposes the taskrt runtime as a long-running network
// service: JSON job submissions over HTTP become task groups on a shared
// runtime, with the paper's runtime-observable counters doing double duty —
// operators watch them on /debug, and the server itself acts on them for
// admission control (shed when the idle-rate says the runtime is
// overhead-bound, Eq. 1) and for live grain selection (jobs submitted
// without a grain get one steered by the adaptive tuner from recent
// counter intervals).
//
// Lifecycle: New → Start → serve Handler() → Drain (stop admitting, finish
// everything in flight, flush counters) → Close.
package taskserve

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/adaptive"
	"taskgrain/internal/chaos"
	"taskgrain/internal/config"
	"taskgrain/internal/counters"
	"taskgrain/internal/journal"
	"taskgrain/internal/loop"
	"taskgrain/internal/policyengine"
	"taskgrain/internal/taskrt"
	"taskgrain/internal/telemetry"
)

// Server is the task-execution service.
type Server struct {
	cfg     config.Server
	workers int

	rt    *taskrt.Runtime
	eng   *policyengine.Engine
	adm   *admission
	store *jobStore

	queue       chan *Job
	runnerWG    sync.WaitGroup
	queueMu     sync.Mutex // serializes queue sends against Drain's close
	draining    atomic.Bool
	started     atomic.Bool
	runningJobs atomic.Int64

	startTime time.Time

	// sampler feeds the telemetry ring behind /telemetry/series and clocks
	// the policy engine; the watchdog judges the engine's intervals (through
	// WatchdogPolicy) and exports its verdict under /telemetry/watchdog/.
	sampler  *telemetry.Sampler
	watchdog *telemetry.Watchdog

	// Service counters, registered in the runtime's registry so /debug and
	// /metrics expose them next to the scheduler counters they react to.
	submitted  *counters.Cumulative
	completed  *counters.Cumulative
	failed     *counters.Cumulative
	cancelledC *counters.Cumulative
	shed       *counters.Cumulative
	traced     *counters.Cumulative

	// Batch-endpoint counters: batches that admitted work, jobs admitted
	// through SubmitBatch, and batches that were partially shed at the queue
	// cut.
	batchSubmitted *counters.Cumulative
	batchJobs      *counters.Cumulative
	batchSheds     *counters.Cumulative

	// wal is the write-ahead job journal (nil when journal_dir is unset):
	// admissions are journaled before their 202 is issued, so every
	// acknowledged job survives a crash-restart of the daemon.
	wal *journal.Ledger[walRecord, walSnapshot]

	// sweeper TTL-evicts terminal jobs (nil when terminal_ttl is 0).
	sweepMeter loop.Meter
	sweeper    *loop.Loop
}

// New builds a server from the configuration. The runtime is owned by the
// server; Start launches it.
func New(cfg config.Server) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pol, err := cfg.PolicyKind()
	if err != nil {
		return nil, err
	}
	rtOpts := []taskrt.Option{taskrt.WithWorkers(workers), taskrt.WithPolicy(pol)}
	if cfg.ChaosSeed != 0 {
		rtOpts = append(rtOpts,
			taskrt.WithChaosHooks(chaos.NewSchedHooks(chaos.DefaultSchedConfig(cfg.ChaosSeed))))
		log.Printf("taskserve: chaos fault injection ARMED (seed %d) — wake delays, worker stalls, steal perturbation; not for production", cfg.ChaosSeed)
	}
	rt := taskrt.New(rtOpts...)

	s := &Server{
		cfg:        cfg,
		workers:    workers,
		rt:         rt,
		store:      newJobStore(),
		queue:      make(chan *Job, cfg.MaxQueuedJobs),
		submitted:  counters.NewCumulative("/server/jobs/submitted"),
		completed:  counters.NewCumulative("/server/jobs/completed"),
		failed:     counters.NewCumulative("/server/jobs/failed"),
		cancelledC: counters.NewCumulative("/server/jobs/cancelled"),
		shed:       counters.NewCumulative("/server/jobs/shed"),
		traced:     counters.NewCumulative("/server/trace/propagated"),
		sweepMeter: loop.NewMeter("ttl-sweep"),

		batchSubmitted: counters.NewCumulative("/server/batch/submitted"),
		batchJobs:      counters.NewCumulative("/server/batch/jobs"),
		batchSheds:     counters.NewCumulative("/server/batch/partial-sheds"),
	}
	s.adm = newAdmission(cfg,
		func() int { return len(s.queue) },
		rt.Inflight,
	)

	reg := rt.Counters()

	// The control-plane engine owns the per-kind grain controllers: jobs read
	// their adaptive grain through it, adaptive-grain jobs' observations
	// feed back through it, and watchdog verdicts and mesh hints actuate
	// through it — one sample→decide→actuate path. Its recorder registers
	// the /control/{decisions,actuations,vetoes} counters on this registry.
	mode, err := cfg.ControlModeKind()
	if err != nil {
		return nil, err
	}
	eng, err := policyengine.New(policyengine.Options{
		Registry:   reg,
		MaxWorkers: workers,
		Mode:       mode,
		Inflight:   rt.Inflight,
		Actuators: policyengine.Actuators{
			SetActiveWorkers: rt.SetActiveWorkers,
			ActiveWorkers:    rt.ActiveWorkers,
		},
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	ctls := make(map[string]*adaptive.Controller, len(jobKinds))
	for _, kind := range jobKinds {
		lo, hi, start := grainBounds(kind, cfg.MaxJobSize)
		ctl, err := adaptive.NewController(adaptive.Config{
			MinPartition: lo,
			MaxPartition: hi,
			HighIdle:     cfg.HighIdle,
		}, start)
		if err != nil {
			return nil, fmt.Errorf("taskserve: grain controller for %s: %w", kind, err)
		}
		ctls[kind] = ctl
		eng.RegisterGrain(kind, ctl)
	}
	reg.MustRegister(s.submitted)
	reg.MustRegister(s.completed)
	reg.MustRegister(s.failed)
	reg.MustRegister(s.cancelledC)
	reg.MustRegister(s.shed)
	reg.MustRegister(s.traced)
	reg.MustRegister(s.batchSubmitted)
	reg.MustRegister(s.batchJobs)
	reg.MustRegister(s.batchSheds)
	s.sweepMeter.Register(reg)
	reg.MustRegister(counters.NewDerived("/server/jobs/queued", func() float64 {
		return float64(len(s.queue))
	}))
	reg.MustRegister(counters.NewDerived("/server/tasks/inflight", func() float64 {
		return float64(rt.Inflight())
	}))
	// The remaining derived counters are the node's load surface for a mesh
	// gateway (internal/mesh): one heartbeat GET of /debug/counters yields
	// the interval idle-rate (Eq. 1, the routing load signal), the job-level
	// occupancy, and the drain state.
	reg.MustRegister(counters.NewDerived("/server/jobs/running", func() float64 {
		return float64(s.runningJobs.Load())
	}))
	reg.MustRegister(counters.NewDerived("/server/idle-rate", func() float64 {
		return s.adm.idleRate()
	}))
	reg.MustRegister(counters.NewDerived("/server/draining", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	}))
	// Per-kind adaptive grain, exported as /server/grain{<kind>}/current so a
	// mesh gateway's /mesh/metrics shows the cluster's grain distribution
	// (taskgrain_server_grain_current{node=...,instance="<kind>"}) straight
	// from the heartbeat snapshots — and so the gateway can compute a grain
	// consensus hint for joining nodes. The decisions{keep|grow|shrink}
	// counters expose each controller's steering activity the same way.
	for kind, ctl := range ctls {
		ctl := ctl
		reg.MustRegister(counters.NewDerived(
			fmt.Sprintf("/server/grain{%s}/current", kind),
			func() float64 { return float64(ctl.Grain()) },
		))
		reg.MustRegister(counters.NewDerived(
			fmt.Sprintf("/server/grain{%s}/decisions{keep}", kind),
			func() float64 { _, kept, _, _ := ctl.Stats(); return float64(kept) },
		))
		reg.MustRegister(counters.NewDerived(
			fmt.Sprintf("/server/grain{%s}/decisions{grow}", kind),
			func() float64 { _, _, grown, _ := ctl.Stats(); return float64(grown) },
		))
		reg.MustRegister(counters.NewDerived(
			fmt.Sprintf("/server/grain{%s}/decisions{shrink}", kind),
			func() float64 { _, _, _, shrunk := ctl.Stats(); return float64(shrunk) },
		))
	}

	// The watchdog judges the engine's own intervals — the idle-rate and
	// task count admission judges — so admission's task floor per sample,
	// ShedMinTasks, over the sampling interval is its tasks-per-second flow
	// floor. Its verdict is exported under /telemetry/watchdog/, where a
	// mesh gateway's heartbeat reads it.
	s.watchdog = telemetry.NewWatchdog(telemetry.WatchdogConfig{
		Subject:   "taskgraind " + cfg.Addr,
		HighIdle:  cfg.HighIdle,
		Window:    cfg.WatchdogWindow,
		FlowFloor: cfg.ShedMinTasks / cfg.TelemetryInterval.Seconds(),
		Logf:      log.Printf,
	})
	s.watchdog.Register(reg)
	// One sampling path: the telemetry sampler is the control plane's only
	// clock. Each sample lands in the ring (history for /telemetry/series)
	// and is then handed to the engine, which derives the interval metrics
	// once and evaluates the policies over them — admission, throttling, and
	// the watchdog (whose grow/shrink verdicts become grain actions instead
	// of dead-end alert strings) — actuating per control_mode.
	s.sampler = telemetry.NewSampler(reg, telemetry.Config{
		Interval: cfg.TelemetryInterval,
		Capacity: cfg.TelemetryRing,
		OnSample: func(ts telemetry.Sample) { s.eng.ObserveSample(ts) },
	})
	eng.AddPolicy(s.adm.policy())
	eng.AddPolicy(&policyengine.ThrottlePolicy{})
	eng.AddPolicy(&policyengine.WatchdogPolicy{Watchdog: s.watchdog})

	// Journal recovery runs before Start: replayed non-terminal jobs land in
	// the queue and wait there until the runners launch.
	if cfg.JournalDir != "" {
		if err := s.openJournal(reg); err != nil {
			return nil, err
		}
	}

	return s, nil
}

// Runtime returns the server's runtime (for tests and embedding).
func (s *Server) Runtime() *taskrt.Runtime { return s.rt }

// Engine returns the server's control-plane engine.
func (s *Server) Engine() *policyengine.Engine { return s.eng }

// Telemetry returns the server's counter sampler (for tests and embedding).
func (s *Server) Telemetry() *telemetry.Sampler { return s.sampler }

// Watchdog returns the server's idle-rate watchdog.
func (s *Server) Watchdog() *telemetry.Watchdog { return s.watchdog }

// Config returns the effective configuration.
func (s *Server) Config() config.Server { return s.cfg }

// Start launches the runtime, the control-plane sampling loop, and the job
// runners. The sampler's tick is the only clock: each sample feeds the
// telemetry ring and then the policy engine.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	s.startTime = time.Now()
	s.rt.Start()
	s.sampler.Start()
	for i := 0; i < s.cfg.MaxConcurrentJobs; i++ {
		s.runnerWG.Add(1)
		go s.runner()
	}
	if s.cfg.TerminalTTL > 0 {
		s.sweeper = s.sweepMeter.Every(max(s.cfg.TerminalTTL/4, 10*time.Millisecond), s.sweepTerminal)
	}
}

// Submit admits one job: a batch of one through the admit core. It returns
// the stored job (fresh, or replayed by idempotency key), or a shedError
// describing why the submission was refused.
func (s *Server) Submit(spec JobSpec) (*Job, *shedError) {
	res := s.admit([]JobSpec{spec})[0]
	return res.job, res.shed
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) { return s.store.get(id) }

// Jobs lists retained jobs in submission order.
func (s *Server) Jobs() []*Job { return s.store.list() }

// Cancel requests cancellation of a job by ID.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.store.get(id)
	if !ok {
		return nil, false
	}
	j.requestAbort("cancelled by client", JobCancelled)
	return j, true
}

// runner is one job-execution worker: it owns no tasks itself, it just
// drives one job at a time onto the shared runtime.
func (s *Server) runner() {
	defer s.runnerWG.Done()
	for job := range s.queue {
		s.runningJobs.Add(1)
		s.runJob(job)
		s.runningJobs.Add(-1)
	}
}

// runJob executes one admitted job end to end: grain choice, deadline arm,
// workload run, one Σt_exec/Σt_func pair read at each edge, adaptive
// feedback (adaptive-grain jobs only), terminal state.
func (s *Server) runJob(job *Job) {
	if job.State() != JobQueued {
		s.accountTerminal(job) // aborted while queued
		return
	}
	if !job.deadline.IsZero() && time.Now().After(job.deadline) {
		job.requestAbort("deadline exceeded before start", JobFailed)
		s.accountTerminal(job)
		return
	}

	spec := job.spec
	grain := spec.Grain
	source := "request"
	if grain == 0 {
		grain = clampGrain(spec.Kind, s.eng.Grain(spec.Kind), spec.Size)
		source = "adaptive"
	}
	if !job.startRunning(grain, source) {
		s.accountTerminal(job)
		return
	}
	if s.wal != nil {
		s.journalStart(job)
	}

	var timer *time.Timer
	if !job.deadline.IsZero() {
		timer = time.AfterFunc(time.Until(job.deadline), func() {
			job.requestAbort("deadline exceeded", JobFailed)
		})
	}

	exec0, func0 := s.rt.LoopTotals()
	res, err := runWorkload(s.rt, spec, grain, job.aborted)
	exec1, func1 := s.rt.LoopTotals()
	if timer != nil {
		timer.Stop()
	}

	var result *JobResult
	if res != nil {
		res.IdleRate = counters.IdleRateOf(float64(exec1-exec0), float64(func1-func0))
		// Only a grain the controller chose can judge the controller: a
		// client-pinned grain says nothing about the adaptive one.
		if source == "adaptive" && err == nil && !job.aborted() {
			_, dec := s.eng.ObserveGrain(spec.Kind, adaptive.Observation{
				PartitionSize: grain,
				IdleRate:      res.IdleRate,
				Tasks:         float64(res.Tasks) / float64(maxInt(res.generations, 1)),
				Cores:         s.workers,
			})
			job.setDecision(dec.String())
		}
		result = &res.JobResult
	}

	job.finish(result, err)
	s.accountTerminal(job)
}

// accountTerminal bumps the outcome counter matching the job's terminal
// state and journals the verdict, exactly once per job (the runner and an
// abort can both get here). No-op for non-terminal states.
func (s *Server) accountTerminal(job *Job) {
	state := job.State()
	if !state.Terminal() || !job.terminalLogged.CompareAndSwap(false, true) {
		return
	}
	switch state {
	case JobDone:
		s.completed.Inc()
	case JobCancelled:
		s.cancelledC.Inc()
	case JobFailed:
		s.failed.Inc()
	}
	if s.wal != nil {
		s.journalTerm(job)
	}
}

// Drain performs the graceful-shutdown sequence: stop admitting (new
// submissions get 503 + Retry-After), let every already-admitted job finish,
// stop the sampling loop, wait for runtime quiescence, and return the final
// counter snapshot for flushing. Ctx bounds the wait; on expiry the drain
// keeps whatever completed and returns the context error.
func (s *Server) Drain(ctx context.Context) (counters.Snapshot, error) {
	if s.draining.CompareAndSwap(false, true) {
		s.queueMu.Lock()
		close(s.queue)
		s.queueMu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.runnerWG.Wait()
		s.rt.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return s.rt.Counters().Snapshot(), ctx.Err()
	}
	s.sampler.Stop()
	s.sweeper.Stop()
	// Flush durability last: with every runner finished the store is all
	// terminal, so the compaction snapshot + fsync leaves a journal that
	// recovers to an empty non-terminal set. Skipped after Crash — a killed
	// journal must stay frozen at the kill instant.
	if s.wal != nil {
		s.wal.Close()
	}
	return s.rt.Counters().Snapshot(), nil
}

// Crash simulates a SIGKILL for crash-restart testing: the journal's durable
// state freezes at this instant (later appends, syncs, and snapshots fail
// with ErrKilled), then the server tears down its goroutines and runtime.
// Unlike Drain, nothing that happens after the kill reaches disk — a
// restarted server on the same journal dir sees exactly what a power loss
// would have left.
func (s *Server) Crash() {
	if s.wal != nil {
		s.wal.Kill()
	}
	_ = s.Close()
}

// Close drains (unbounded) and shuts the runtime down. After Close the
// server cannot be restarted.
func (s *Server) Close() error {
	_, err := s.Drain(context.Background())
	s.rt.Shutdown()
	return err
}

// Stats is the service-level status served by GET /v1/stats.
type Stats struct {
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Workers        int               `json:"workers"`
	ActiveWorkers  int               `json:"active_workers"`
	Draining       bool              `json:"draining"`
	Jobs           map[JobState]int  `json:"jobs"`
	QueuedJobs     int               `json:"queued_jobs"`
	InflightTasks  int64             `json:"inflight_tasks"`
	Submitted      int64             `json:"submitted"`
	Completed      int64             `json:"completed"`
	Failed         int64             `json:"failed"`
	Cancelled      int64             `json:"cancelled"`
	Shed           int64             `json:"shed"`
	ShedByQueue    int64             `json:"shed_by_queue"`
	ShedByBacklog  int64             `json:"shed_by_backlog"`
	ShedByOverload int64             `json:"shed_by_overload"`
	IdleRate       float64           `json:"idle_rate"`
	ControlMode    string            `json:"control_mode"`
	AdaptiveGrains map[string]int    `json:"adaptive_grains"`
	GrainDecisions map[string][3]int `json:"grain_decisions"` // keep/grow/shrink
}

// Stats snapshots the service state.
func (s *Server) StatsSnapshot() Stats {
	kinds := s.eng.GrainKinds()
	grains := make(map[string]int, len(kinds))
	decisions := make(map[string][3]int, len(kinds))
	for _, kind := range kinds {
		grains[kind] = s.eng.Grain(kind)
		_, kept, grown, shrunk, _ := s.eng.GrainStats(kind)
		decisions[kind] = [3]int{kept, grown, shrunk}
	}
	sq, sb, so := s.adm.sheds()
	return Stats{
		UptimeSeconds:  time.Since(s.startTime).Seconds(),
		Workers:        s.workers,
		ActiveWorkers:  s.rt.ActiveWorkers(),
		Draining:       s.draining.Load(),
		Jobs:           s.store.counts(),
		QueuedJobs:     len(s.queue),
		InflightTasks:  s.rt.Inflight(),
		Submitted:      s.submitted.Raw(),
		Completed:      s.completed.Raw(),
		Failed:         s.failed.Raw(),
		Cancelled:      s.cancelledC.Raw(),
		Shed:           s.shed.Raw(),
		ShedByQueue:    sq,
		ShedByBacklog:  sb,
		ShedByOverload: so,
		IdleRate:       s.adm.idleRate(),
		ControlMode:    string(s.eng.Mode()),
		AdaptiveGrains: grains,
		GrainDecisions: decisions,
	}
}
