package config

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func TestDefaultServerValid(t *testing.T) {
	s := DefaultServer()
	if err := s.Validate(); err != nil {
		t.Fatalf("default server config invalid: %v", err)
	}
	if s.HighIdle != 0.30 {
		t.Fatalf("default HighIdle = %v, want the paper's 0.30", s.HighIdle)
	}
}

func TestServerValidateRejects(t *testing.T) {
	cases := []func(*Server){
		func(s *Server) { s.Addr = "" },
		func(s *Server) { s.MaxQueuedJobs = 0 },
		func(s *Server) { s.MaxConcurrentJobs = 0 },
		func(s *Server) { s.MaxInflightTasks = 0 },
		func(s *Server) { s.HighIdle = 1.5 },
		func(s *Server) { s.RetryAfter = 0 },
		func(s *Server) { s.MaxJobSize = 0 },
		func(s *Server) { s.Policy = "no-such-policy" },
		func(s *Server) { s.TelemetryInterval = 0 },
		func(s *Server) { s.TelemetryRing = 1 },
		func(s *Server) { s.WatchdogWindow = -time.Second },
		func(s *Server) { s.JournalFsync = "sometimes" },
		func(s *Server) { s.JournalSegmentBytes = 512 },
		func(s *Server) { s.JournalFsyncInterval = -time.Millisecond },
		func(s *Server) { s.JournalRecovery = "resurrect" },
		func(s *Server) { s.TerminalTTL = -time.Minute },
		func(s *Server) { s.MaxBatchJobs = 0 },
	}
	for i, mutate := range cases {
		s := DefaultServer()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, s)
		}
	}
}

func TestServerApplyEnv(t *testing.T) {
	env := map[string]string{
		"TASKGRAIND_ADDR":                "127.0.0.1:9999",
		"TASKGRAIND_WORKERS":             "3",
		"TASKGRAIND_MAX_QUEUED_JOBS":     "7",
		"TASKGRAIND_MAX_CONCURRENT_JOBS": "2",
		"TASKGRAIND_MAX_INFLIGHT_TASKS":  "12345",
		"TASKGRAIND_MAX_BATCH_JOBS":      "33",
		"TASKGRAIND_HIGH_IDLE":           "0.45",
		"TASKGRAIND_RETRY_AFTER":         "2500ms",
		"TASKGRAIND_DEFAULT_DEADLINE":    "30s",
		"TASKGRAIND_TELEMETRY_INTERVAL":  "125ms",
		"TASKGRAIND_TELEMETRY_RING":      "99",
		"TASKGRAIND_WATCHDOG_WINDOW":     "7s",
	}
	s := DefaultServer()
	if err := s.ApplyEnv(func(k string) (string, bool) { v, ok := env[k]; return v, ok }); err != nil {
		t.Fatal(err)
	}
	if s.Addr != "127.0.0.1:9999" || s.Workers != 3 || s.MaxQueuedJobs != 7 ||
		s.MaxConcurrentJobs != 2 || s.MaxInflightTasks != 12345 || s.MaxBatchJobs != 33 || s.HighIdle != 0.45 ||
		s.RetryAfter != 2500*time.Millisecond || s.DefaultDeadline != 30*time.Second {
		t.Fatalf("env overlay not applied: %+v", s)
	}
	if s.TelemetryInterval != 125*time.Millisecond || s.TelemetryRing != 99 ||
		s.WatchdogWindow != 7*time.Second {
		t.Fatalf("telemetry env overlay not applied: %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestServerApplyEnvRejectsGarbage(t *testing.T) {
	s := DefaultServer()
	err := s.ApplyEnv(func(k string) (string, bool) {
		if k == "TASKGRAIND_RETRY_AFTER" {
			return "soon", true
		}
		return "", false
	})
	if err == nil {
		t.Fatal("ApplyEnv accepted TASKGRAIND_RETRY_AFTER=soon")
	}
}

func TestServerFlagsOverride(t *testing.T) {
	s := DefaultServer()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s.Flags(fs)
	if err := fs.Parse([]string{"-addr", ":7070", "-max-queued-jobs", "3", "-high-idle", "0.2",
		"-telemetry-interval", "75ms", "-telemetry-ring", "42", "-watchdog-window", "11s"}); err != nil {
		t.Fatal(err)
	}
	if s.Addr != ":7070" || s.MaxQueuedJobs != 3 || s.HighIdle != 0.2 {
		t.Fatalf("flags not bound: %+v", s)
	}
	if s.TelemetryInterval != 75*time.Millisecond || s.TelemetryRing != 42 || s.WatchdogWindow != 11*time.Second {
		t.Fatalf("telemetry flags not bound: %+v", s)
	}
}

func TestServerJournalKnobs(t *testing.T) {
	s := DefaultServer()
	if s.JournalDir != "" {
		t.Fatalf("journal enabled by default (dir %q)", s.JournalDir)
	}
	if !s.RecoveryRequeues() {
		t.Fatal("default recovery policy is not requeue")
	}
	env := map[string]string{
		"TASKGRAIND_JOURNAL_DIR":            "/tmp/wal",
		"TASKGRAIND_JOURNAL_FSYNC":          "always",
		"TASKGRAIND_JOURNAL_SEGMENT_BYTES":  "65536",
		"TASKGRAIND_JOURNAL_FSYNC_INTERVAL": "5ms",
		"TASKGRAIND_JOURNAL_RECOVERY":       "fail",
		"TASKGRAIND_TERMINAL_TTL":           "3m",
	}
	if err := s.ApplyEnv(func(k string) (string, bool) { v, ok := env[k]; return v, ok }); err != nil {
		t.Fatal(err)
	}
	if s.JournalDir != "/tmp/wal" || s.JournalFsync != "always" ||
		s.JournalSegmentBytes != 65536 || s.JournalFsyncInterval != 5*time.Millisecond ||
		s.JournalRecovery != "fail" || s.TerminalTTL != 3*time.Minute {
		t.Fatalf("journal env overlay not applied: %+v", s)
	}
	if s.RecoveryRequeues() {
		t.Fatal("RecoveryRequeues true after TASKGRAIND_JOURNAL_RECOVERY=fail")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s.Flags(fs)
	if err := fs.Parse([]string{"-journal-dir", "/tmp/wal2", "-journal-fsync", "none",
		"-journal-recovery", "requeue", "-terminal-ttl", "90s"}); err != nil {
		t.Fatal(err)
	}
	if s.JournalDir != "/tmp/wal2" || s.JournalFsync != "none" ||
		!s.RecoveryRequeues() || s.TerminalTTL != 90*time.Second {
		t.Fatalf("journal flags not bound: %+v", s)
	}
}

func TestServerLoadRoundTrip(t *testing.T) {
	s := DefaultServer()
	s.Addr = ":7171"
	s.MaxQueuedJobs = 11
	var b strings.Builder
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	got, err := LoadServer(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestServerLoadRejectsUnknownFields(t *testing.T) {
	if _, err := LoadServer(strings.NewReader(`{"addr": ":1", "no_such_field": 1}`)); err == nil {
		t.Fatal("LoadServer accepted unknown field")
	}
	// The node samples at telemetry_interval; a file still carrying the
	// removed sampling key fails to load instead of being silently ignored.
	if _, err := LoadServer(strings.NewReader(`{"addr": ":1", "sample_interval_ns": 20000000}`)); err == nil {
		t.Fatal("LoadServer accepted the removed sample_interval_ns key")
	}
}

// TestTelemetryIntervalDefaults: a node's one sampling interval defaults to
// the control plane's 50ms. The gateway samples nothing — it relays node
// watchdog verdicts from its heartbeats — so a gateway file carrying the
// node's sampling keys fails to load instead of being silently ignored.
func TestTelemetryIntervalDefaults(t *testing.T) {
	if got := DefaultServer().TelemetryInterval; got != 50*time.Millisecond {
		t.Fatalf("node telemetry_interval = %v, want 50ms", got)
	}
	for _, key := range []string{"telemetry_interval_ns", "telemetry_ring", "watchdog_window_ns"} {
		in := `{"nodes":["http://n1:1"],"` + key + `":1}`
		if _, err := LoadMesh(strings.NewReader(in)); err == nil {
			t.Fatalf("LoadMesh accepted the node-only key %s", key)
		}
	}
}
