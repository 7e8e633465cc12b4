package taskserve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/journal"
)

// journalConfig is testConfig plus a journal rooted in a fresh temp dir.
func journalConfig(t *testing.T) config.Server {
	t.Helper()
	cfg := testConfig()
	cfg.JournalDir = t.TempDir()
	cfg.JournalFsyncInterval = time.Millisecond
	return cfg
}

// waitTerminal polls a job to a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) JobState {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s stuck in %s", id, j.State())
	}
	return j.State()
}

// TestJournalCrashRestartRequeues is the core durability path: jobs admitted
// (202) before a crash must reappear on a restarted server over the same
// journal dir and run to completion under the requeue policy.
func TestJournalCrashRestartRequeues(t *testing.T) {
	cfg := journalConfig(t)
	// One runner and a long job keep later admissions queued at crash time.
	cfg.MaxConcurrentJobs = 1
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()

	blocker, se := a.Submit(JobSpec{Kind: KindStencil, Size: 2_000_000, Steps: 20, Grain: 2000})
	if se != nil {
		t.Fatalf("blocker shed: %v", se.reason)
	}
	var queued []string
	for i := 0; i < 4; i++ {
		j, se := a.Submit(JobSpec{Kind: KindFibonacci, Size: 10,
			IdempotencyKey: "crash-key-" + string(rune('a'+i))})
		if se != nil {
			t.Fatalf("submit %d shed: %v", i, se.reason)
		}
		queued = append(queued, j.ID())
	}
	a.Crash()

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.wal.Recovered(); got < int64(len(queued)) {
		t.Fatalf("/journal/recovered-jobs = %d, want ≥ %d", got, len(queued))
	}
	// Idempotency keys must survive the restart: resubmitting under the same
	// key replays the recovered job instead of admitting a second run.
	rj, se := b.Submit(JobSpec{Kind: KindFibonacci, Size: 10, IdempotencyKey: "crash-key-a"})
	if se != nil {
		t.Fatalf("replay submit shed: %v", se.reason)
	}
	if rj.ID() != queued[0] {
		t.Fatalf("idempotency replay returned %s, want recovered %s", rj.ID(), queued[0])
	}
	b.Start()
	for _, id := range append([]string{blocker.ID()}, queued...) {
		if st := waitTerminal(t, b, id); !st.Terminal() {
			t.Fatalf("recovered job %s ended non-terminal: %s", id, st)
		}
	}
	for _, id := range queued {
		if st := waitTerminal(t, b, id); st != JobDone {
			t.Fatalf("requeued job %s = %s, want done", id, st)
		}
	}
}

// TestJournalRecoveryFailPolicy marks recovered non-terminal jobs
// lost-on-crash instead of re-running them.
func TestJournalRecoveryFailPolicy(t *testing.T) {
	cfg := journalConfig(t)
	cfg.MaxConcurrentJobs = 1
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	// The blocker owns the only runner, so the victim stays queued until the
	// crash drops it.
	if _, se := a.Submit(JobSpec{Kind: KindStencil, Size: 2_000_000, Steps: 20, Grain: 2000}); se != nil {
		t.Fatalf("blocker shed: %v", se.reason)
	}
	j, se := a.Submit(JobSpec{Kind: KindFibonacci, Size: 8})
	if se != nil {
		t.Fatalf("submit shed: %v", se.reason)
	}
	a.Crash()

	cfg.JournalRecovery = config.JournalRecoveryFail
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rj, ok := b.Job(j.ID())
	if !ok {
		t.Fatalf("job %s not recovered", j.ID())
	}
	if st := rj.State(); st != JobFailed {
		t.Fatalf("recovered job state = %s, want failed under the fail policy", st)
	}
	if rj.View().Error != "lost-on-crash" {
		t.Fatalf("recovered job error = %q, want lost-on-crash", rj.View().Error)
	}
	// The verdict itself is journaled: a second restart must not resurrect.
	b.Close()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cj, ok := c.Job(j.ID())
	if !ok {
		t.Fatalf("job %s gone after second restart", j.ID())
	}
	if st := cj.State(); st != JobFailed {
		t.Fatalf("second restart state = %s, want failed", st)
	}
}

// TestDrainFlushesJournal is the graceful-shutdown regression test: a
// drained server's journal must recover to an empty non-terminal set — the
// drain compaction + fsync ran before exit.
func TestDrainFlushesJournal(t *testing.T) {
	cfg := journalConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var ids []string
	for i := 0; i < 5; i++ {
		j, se := s.Submit(JobSpec{Kind: KindFibonacci, Size: 10})
		if se != nil {
			t.Fatalf("submit %d shed: %v", i, se.reason)
		}
		ids = append(ids, j.ID())
	}
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := journal.Recover(cfg.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil {
		t.Fatal("drain wrote no compaction snapshot")
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, id := range ids {
		j, ok := b.Job(id)
		if !ok {
			t.Fatalf("job %s lost across drained restart", id)
		}
		if st := j.State(); !st.Terminal() {
			t.Fatalf("drained restart recovered %s as %s — non-terminal set not empty", id, st)
		}
	}
}

// TestTerminalTTLEvictionCompacts is the unbounded-growth bugfix test:
// terminal jobs older than the TTL leave the store, and the journal mirrors
// the eviction with a compaction snapshot so it forgets them too.
func TestTerminalTTLEvictionCompacts(t *testing.T) {
	cfg := journalConfig(t)
	cfg.TerminalTTL = 30 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	j, se := s.Submit(JobSpec{Kind: KindFibonacci, Size: 8})
	if se != nil {
		t.Fatalf("submit shed: %v", se.reason)
	}
	waitTerminal(t, s, j.ID())

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, stillThere := s.Job(j.ID())
		if !stillThere && s.wal.SnapshotLSN() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TTL eviction did not run: job present=%v snapshotLSN=%d",
				stillThere, s.wal.SnapshotLSN())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The journal forgot the evicted job: a restarted server no longer
	// serves it.
	s.Close()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, ok := b.Job(j.ID()); ok {
		t.Fatalf("TTL-evicted job %s resurrected from the journal", j.ID())
	}
}

// TestTerminalTTLEvictionWithoutJournal covers the store-only variant of the
// eviction bugfix: TTL eviction must work with durability disabled.
func TestTerminalTTLEvictionWithoutJournal(t *testing.T) {
	cfg := testConfig()
	cfg.TerminalTTL = 30 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	j, se := s.Submit(JobSpec{Kind: KindFibonacci, Size: 8})
	if se != nil {
		t.Fatalf("submit shed: %v", se.reason)
	}
	waitTerminal(t, s, j.ID())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Job(j.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job never TTL-evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalCompactionKeepsConcurrentAdmits: a compaction snapshot is the
// store at exactly its LSN, so an admission journaled while the snapshot was
// being assembled must be in it (or replayed after it), and an admission
// rescinded with a 429 must not come back — or a 202'd job is lost to the
// restarted server, or a refused one runs anyway.
func TestJournalCompactionKeepsConcurrentAdmits(t *testing.T) {
	const submitters = 4
	cfg := journalConfig(t)
	cfg.MaxQueuedJobs = 256
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The runners stay unstarted, so admissions queue until the queue sheds.
	// A full store of finished jobs makes one capture take milliseconds, long
	// enough that admissions are certain to land meanwhile.
	for n := 1; n <= retainFinished; n++ {
		s.store.restore(newRecoveredJob(fmt.Sprintf("j-%d", n),
			JobSpec{Kind: KindFibonacci, Size: 10}, time.Time{}, JobDone, "", 0))
	}
	accepted := make([][]string, submitters)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				j, se := s.Submit(JobSpec{Kind: KindFibonacci, Size: 10})
				if se != nil {
					if se.status != http.StatusTooManyRequests {
						t.Errorf("submit shed with %d (%s), want 429", se.status, se.reason)
					}
					return
				}
				accepted[w] = append(accepted[w], j.ID())
				admitted.Add(1)
			}
		}(w)
	}
	// Compactions run back to back while the first half of the queue fills,
	// then stop: the last one overlaps live submitters, and nothing after it
	// re-snapshots an admission it missed.
	for admitted.Load() < int64(cfg.MaxQueuedJobs/2) {
		s.journalCompact()
	}
	wg.Wait()
	s.store.mu.Lock()
	lastID := s.store.nextID
	s.store.mu.Unlock()
	if err := s.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	acked := make(map[string]bool)
	for _, ids := range accepted {
		for _, id := range ids {
			acked[id] = true
			if _, ok := b.Job(id); !ok {
				t.Fatalf("job %s was admitted (202) but is unknown after the restart", id)
			}
		}
	}
	for n := uint64(retainFinished + 1); n <= lastID; n++ {
		id := fmt.Sprintf("j-%d", n)
		if _, ok := b.Job(id); ok && !acked[id] {
			t.Fatalf("job %s was rescinded (429) but came back after the restart", id)
		}
	}
}
