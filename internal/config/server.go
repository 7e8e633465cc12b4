package config

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"taskgrain/internal/taskrt"
)

// Recovery policies for journaled jobs found non-terminal after a restart.
const (
	// JournalRecoveryRequeue re-queues recovered non-terminal jobs for
	// execution (falling back to a lost-on-crash failure if the queue
	// overflows during replay).
	JournalRecoveryRequeue = "requeue"
	// JournalRecoveryFail marks recovered non-terminal jobs failed with a
	// lost-on-crash error so clients learn their fate without re-execution.
	JournalRecoveryFail = "fail"
)

// JournalRecoveryPolicies lists the valid journal_recovery values.
var JournalRecoveryPolicies = []string{JournalRecoveryRequeue, JournalRecoveryFail}

// Server is the serializable configuration of the taskserve daemon
// (cmd/taskgraind). Precedence, lowest to highest: defaults, a JSON file
// (LoadServer), environment variables (ApplyEnv, TASKGRAIND_* keys), and
// command-line flags (Flags).
type Server struct {
	Common

	// Workers is the runtime worker count (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Policy is the scheduling policy name (default priority-local-fifo).
	Policy string `json:"policy,omitempty"`

	// TelemetryInterval is the counter-sampling period: each sample lands in
	// the telemetry ring (history behind /telemetry/series) and drives
	// admission, the policy engine and the watchdog, so it is also the
	// control plane's period.
	TelemetryInterval time.Duration `json:"telemetry_interval_ns"`
	// TelemetryRing is the ring capacity in samples (history length =
	// TelemetryInterval × TelemetryRing).
	TelemetryRing int `json:"telemetry_ring"`
	// WatchdogWindow is the sliding window an idle-rate must stay above
	// tolerance for before a /telemetry/alerts condition fires.
	WatchdogWindow time.Duration `json:"watchdog_window_ns"`

	// MaxQueuedJobs bounds jobs admitted but not yet running; submissions
	// beyond it are shed with 429.
	MaxQueuedJobs int `json:"max_queued_jobs"`
	// MaxConcurrentJobs bounds jobs running task groups at once.
	MaxConcurrentJobs int `json:"max_concurrent_jobs"`
	// MaxInflightTasks sheds submissions while the runtime backlog
	// (staged+pending+active+suspended tasks) exceeds it.
	MaxInflightTasks int64 `json:"max_inflight_tasks"`
	// HighIdle is the idle-rate admission threshold (Eq. 1; the paper
	// demonstrates ~0.30): intervals above it with real task flow mark the
	// runtime overhead-bound and shed new work.
	HighIdle float64 `json:"high_idle"`
	// ShedMinTasks is the per-sample task-count floor below which a high
	// idle-rate means an *empty* runtime rather than an overloaded one (the
	// two walls of the paper's U-curve are indistinguishable by idle-rate
	// alone), so no shedding happens.
	ShedMinTasks float64 `json:"shed_min_tasks"`
	// RetryAfter is the client backoff hint attached to 429/503 responses.
	RetryAfter time.Duration `json:"retry_after_ns"`
	// MaxJobSize rejects single jobs larger than this many points (400).
	MaxJobSize int `json:"max_job_size"`
	// DefaultDeadline bounds jobs that do not set one (0 = none).
	DefaultDeadline time.Duration `json:"default_deadline_ns,omitempty"`

	// JournalRecovery decides what happens to journaled jobs recovered
	// non-terminal after a restart: "requeue" re-runs them, "fail" marks
	// them lost-on-crash.
	JournalRecovery string `json:"journal_recovery,omitempty"`
	// TerminalTTL evicts terminal jobs from the in-memory store after this
	// long, triggering a journal compaction snapshot when anything was
	// evicted (0 disables TTL eviction; the count-bound retention still
	// applies).
	TerminalTTL time.Duration `json:"terminal_ttl_ns,omitempty"`

	// ChaosSeed, when non-zero, arms deterministic scheduler fault
	// injection (internal/chaos) with that seed: wake delays, worker
	// stalls, and steal-order perturbation on the runtime. Strictly a
	// test/repro facility — never set it in production.
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
}

// DefaultServer returns the taskgraind defaults. A node samples every 50ms:
// its one sampler drives admission and the policy engine, which must react
// within a few jobs.
func DefaultServer() Server {
	return Server{
		Common:            defaultCommon(":8080"),
		Policy:            "priority-local-fifo",
		TelemetryInterval: 50 * time.Millisecond,
		TelemetryRing:     600,
		WatchdogWindow:    5 * time.Second,
		MaxQueuedJobs:     64,
		MaxConcurrentJobs: 4,
		MaxInflightTasks:  100_000,
		HighIdle:          0.30,
		ShedMinTasks:      256,
		RetryAfter:        time.Second,
		MaxJobSize:        50_000_000,
		JournalRecovery:   JournalRecoveryRequeue,
		TerminalTTL:       10 * time.Minute,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (s *Server) Validate() error {
	if err := s.Common.validate(); err != nil {
		return err
	}
	switch {
	case s.Workers < 0:
		return fmt.Errorf("config: server workers = %d", s.Workers)
	case s.TelemetryInterval <= 0:
		return fmt.Errorf("config: telemetry_interval = %v", s.TelemetryInterval)
	case s.TelemetryRing < 2:
		return fmt.Errorf("config: telemetry_ring = %d (need at least 2 samples for interval queries)", s.TelemetryRing)
	case s.WatchdogWindow <= 0:
		return fmt.Errorf("config: watchdog_window = %v", s.WatchdogWindow)
	case s.MaxQueuedJobs < 1:
		return fmt.Errorf("config: max_queued_jobs = %d", s.MaxQueuedJobs)
	case s.MaxConcurrentJobs < 1:
		return fmt.Errorf("config: max_concurrent_jobs = %d", s.MaxConcurrentJobs)
	case s.MaxInflightTasks < 1:
		return fmt.Errorf("config: max_inflight_tasks = %d", s.MaxInflightTasks)
	case s.HighIdle <= 0 || s.HighIdle >= 1:
		return fmt.Errorf("config: high_idle = %v not in (0,1)", s.HighIdle)
	case s.ShedMinTasks < 0:
		return fmt.Errorf("config: shed_min_tasks = %v", s.ShedMinTasks)
	case s.RetryAfter <= 0:
		return fmt.Errorf("config: retry_after = %v", s.RetryAfter)
	case s.MaxJobSize < 1:
		return fmt.Errorf("config: max_job_size = %d", s.MaxJobSize)
	case s.DefaultDeadline < 0:
		return fmt.Errorf("config: default_deadline = %v", s.DefaultDeadline)
	case s.TerminalTTL < 0:
		return fmt.Errorf("config: terminal_ttl = %v", s.TerminalTTL)
	}
	switch s.journalRecoveryName() {
	case JournalRecoveryRequeue, JournalRecoveryFail:
	default:
		return fmt.Errorf("config: unknown journal_recovery %q (want %s)",
			s.JournalRecovery, strings.Join(JournalRecoveryPolicies, ", "))
	}
	if _, err := taskrt.ParsePolicy(s.policyName()); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

func (s *Server) journalRecoveryName() string {
	if s.JournalRecovery == "" {
		return JournalRecoveryRequeue
	}
	return s.JournalRecovery
}

// RecoveryRequeues reports whether recovered non-terminal jobs re-queue
// (true) or fail lost-on-crash (false).
func (s *Server) RecoveryRequeues() bool {
	return s.journalRecoveryName() == JournalRecoveryRequeue
}

func (s *Server) policyName() string {
	if s.Policy == "" {
		return "priority-local-fifo"
	}
	return s.Policy
}

// PolicyKind returns the parsed scheduling policy.
func (s *Server) PolicyKind() (taskrt.PolicyKind, error) {
	return taskrt.ParsePolicy(s.policyName())
}

// ApplyEnv overlays TASKGRAIND_* environment variables onto the
// configuration, one per JSON key (see applyEnv). lookup is os.LookupEnv in
// production; injected for tests.
func (s *Server) ApplyEnv(lookup func(string) (string, bool)) error {
	return applyEnv("TASKGRAIND_", s, lookup)
}

// Flags registers command-line flags bound to the configuration fields, so
// flag parsing (highest precedence) overwrites file and environment values.
func (s *Server) Flags(fs *flag.FlagSet) {
	s.Common.flags(fs)
	fs.IntVar(&s.Workers, "workers", s.Workers, "runtime workers (0 = GOMAXPROCS)")
	fs.StringVar(&s.Policy, "policy", s.policyName(), "scheduling policy")
	fs.DurationVar(&s.TelemetryInterval, "telemetry-interval", s.TelemetryInterval, "counter sampling period (telemetry ring, admission, policy engine)")
	fs.IntVar(&s.TelemetryRing, "telemetry-ring", s.TelemetryRing, "telemetry ring capacity (samples)")
	fs.DurationVar(&s.WatchdogWindow, "watchdog-window", s.WatchdogWindow, "idle-rate watchdog sliding window")
	fs.IntVar(&s.MaxQueuedJobs, "max-queued-jobs", s.MaxQueuedJobs, "admission bound on queued jobs")
	fs.IntVar(&s.MaxConcurrentJobs, "max-concurrent-jobs", s.MaxConcurrentJobs, "jobs running concurrently")
	fs.Int64Var(&s.MaxInflightTasks, "max-inflight-tasks", s.MaxInflightTasks, "admission bound on runtime task backlog")
	fs.Float64Var(&s.HighIdle, "high-idle", s.HighIdle, "idle-rate shedding threshold (Eq. 1)")
	fs.Float64Var(&s.ShedMinTasks, "shed-min-tasks", s.ShedMinTasks, "interval task floor before idle-rate sheds")
	fs.DurationVar(&s.RetryAfter, "retry-after", s.RetryAfter, "Retry-After hint on shed responses")
	fs.IntVar(&s.MaxJobSize, "max-job-size", s.MaxJobSize, "largest accepted job size (points)")
	fs.DurationVar(&s.DefaultDeadline, "default-deadline", s.DefaultDeadline, "deadline for jobs that set none (0 = none)")
	fs.StringVar(&s.JournalRecovery, "journal-recovery", s.journalRecoveryName(),
		"recovered non-terminal job policy ("+strings.Join(JournalRecoveryPolicies, ", ")+")")
	fs.DurationVar(&s.TerminalTTL, "terminal-ttl", s.TerminalTTL, "terminal job retention before TTL eviction (0 = count-bound only)")
	fs.Int64Var(&s.ChaosSeed, "chaos-seed", s.ChaosSeed, "arm deterministic chaos fault injection with this seed (0 = off; test/repro only)")
}

// LoadServer decodes a server configuration from JSON over the defaults,
// rejecting unknown fields.
func LoadServer(r io.Reader) (Server, error) {
	s := DefaultServer()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("config: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// LoadServerFile loads a server configuration from a JSON file.
func LoadServerFile(path string) (Server, error) {
	f, err := os.Open(path)
	if err != nil {
		return DefaultServer(), fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return LoadServer(f)
}

// Save encodes the server configuration as indented JSON.
func (s *Server) Save(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
