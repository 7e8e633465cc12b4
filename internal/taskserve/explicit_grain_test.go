package taskserve

import (
	"testing"

	"taskgrain/internal/policyengine"
)

// TestExplicitGrainLeavesControllerAlone: a client-pinned grain says nothing
// about the adaptive one, so explicit-grain jobs must neither observe into
// nor move their kind's controller, and carry no adaptive_decision. When
// they did, fifty fib(10) jobs pinned at grain 5 walked the fibonacci grain
// from 20 to 2.
func TestExplicitGrainLeavesControllerAlone(t *testing.T) {
	// Advisory mode holds the watchdog's grain actions, which would move the
	// grain on a slow host; the per-job walk actuates in both modes.
	cfg := testConfig()
	cfg.ControlMode = string(policyengine.ModeAdvisory)
	s, _ := newTestServer(t, cfg)
	eng := s.Engine()
	start := eng.Grain(KindFibonacci)

	const jobs = 50
	decided := 0
	for i := 0; i < jobs; i++ {
		v := runToEnd(t, s, JobSpec{Kind: KindFibonacci, Size: 10, Grain: 5})
		if v.State != JobDone || v.Result == nil || v.Result.Checksum != 55 || v.GrainSource != "request" {
			t.Fatalf("job %d: state %s (%s), grain_source %q, result %+v", i, v.State, v.Error, v.GrainSource, v.Result)
		}
		if v.Decision != "" {
			decided++
		}
	}
	if decided != 0 {
		t.Errorf("%d of %d explicit-grain jobs carry adaptive_decision, want 0", decided, jobs)
	}
	if got := eng.Grain(KindFibonacci); got != start {
		t.Errorf("explicit-grain jobs moved the fibonacci grain %d -> %d", start, got)
	}
	if obs, _, _, _, _ := eng.GrainStats(KindFibonacci); obs != 0 {
		t.Fatalf("explicit-grain jobs fed %d observations to the controller, want 0", obs)
	}

	// One job without a grain runs at the controller's grain and is judged.
	v := runToEnd(t, s, JobSpec{Kind: KindFibonacci, Size: 10})
	if v.State != JobDone || v.GrainSource != "adaptive" || v.Decision == "" {
		t.Fatalf("adaptive job: state %s, grain_source %q, adaptive_decision %q", v.State, v.GrainSource, v.Decision)
	}
	obs, kept, grown, shrunk, _ := eng.GrainStats(KindFibonacci)
	if obs != 1 || kept+grown+shrunk != 1 {
		t.Fatalf("after one adaptive job: %d observations, %d decisions; want 1 and 1", obs, kept+grown+shrunk)
	}
}

// TestExplicitGrainJobAllocBytes bounds what one warm tiny job allocates
// through Submit: the job path reads the runtime's Σt_exec/Σt_func pair at
// each edge and takes no counter-registry snapshot, whose two maps alone
// cost several KB per job.
func TestExplicitGrainJobAllocBytes(t *testing.T) {
	if median := warmJobAllocBytes(t, JobSpec{Kind: KindFibonacci, Size: 10, Grain: 10}); median >= 4<<10 {
		t.Fatalf("warm fib(10) job allocated %d B (median), want < 4 KiB", median)
	}
}
