package taskserve

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"taskgrain/internal/counters"
	"taskgrain/internal/journal"
)

// Journal record kinds. One record is appended per lifecycle transition:
// admit (before the 202 is issued, so an acknowledged job is always
// recoverable), start (grain chosen, task group headed for the runtime),
// term (exactly one per job, guarded by Job.terminalLogged), and drop (an
// admit that was rescinded before the job ever ran — shed on a full queue or
// a drain race — so recovery must forget it rather than resurrect it).
const (
	walAdmit = "admit"
	walStart = "start"
	walTerm  = "term"
	walDrop  = "drop"
)

// walRecord is one journaled lifecycle transition. Spec rides on the admit
// record (it is everything needed to re-run the job, idempotency key
// included); the rest are deltas keyed by job ID.
type walRecord struct {
	T        string   `json:"t"`
	ID       string   `json:"id"`
	Spec     *JobSpec `json:"spec,omitempty"`
	Deadline int64    `json:"deadline,omitempty"` // unix ns, 0 = none
	Grain    int      `json:"grain,omitempty"`
	State    JobState `json:"state,omitempty"`
	Err      string   `json:"err,omitempty"`
}

// walSnapJob is one job inside a compaction snapshot.
type walSnapJob struct {
	ID       string   `json:"id"`
	Spec     JobSpec  `json:"spec"`
	State    JobState `json:"state"`
	Err      string   `json:"err,omitempty"`
	Grain    int      `json:"grain,omitempty"`
	Deadline int64    `json:"deadline,omitempty"`
}

// walSnapshot is the full-store state a compaction writes; segments wholly
// below its LSN are deleted, so jobs TTL-evicted from the store are forgotten
// by the journal at the next compaction.
type walSnapshot struct {
	NextID uint64       `json:"next_id"`
	Jobs   []walSnapJob `json:"jobs"`
}

// setupJournal recovers the journal directory into the job store, re-queues
// or fails non-terminal survivors per the recovery policy, opens the journal
// for appending, and registers the /journal/* counters. Called from New
// before Start, so replayed jobs sit in the queue until the runners launch.
func (s *Server) setupJournal() error {
	rec, err := journal.Recover(s.cfg.JournalDir)
	if err != nil {
		return fmt.Errorf("taskserve: journal recovery: %w", err)
	}

	// The replay accumulator per job is its snapshot form.
	byID := make(map[string]*walSnapJob)
	var order []string
	var snapNextID uint64
	if rec.Snapshot != nil {
		var snap walSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("taskserve: journal snapshot: %w", err)
		}
		snapNextID = snap.NextID
		for i := range snap.Jobs {
			byID[snap.Jobs[i].ID] = &snap.Jobs[i]
			order = append(order, snap.Jobs[i].ID)
		}
	}
	for _, r := range rec.Records {
		var w walRecord
		if err := json.Unmarshal(r.Payload, &w); err != nil {
			return fmt.Errorf("taskserve: journal record at LSN %d: %w", r.LSN, err)
		}
		switch w.T {
		case walAdmit:
			if _, ok := byID[w.ID]; !ok && w.Spec != nil {
				byID[w.ID] = &walSnapJob{ID: w.ID, Spec: *w.Spec, Deadline: w.Deadline, State: JobQueued}
				order = append(order, w.ID)
			}
		case walStart:
			if rj, ok := byID[w.ID]; ok {
				rj.Grain = w.Grain
				if !rj.State.Terminal() {
					rj.State = JobRunning
				}
			}
		case walTerm:
			if rj, ok := byID[w.ID]; ok && !rj.State.Terminal() {
				rj.State = w.State
				rj.Err = w.Err
			}
		case walDrop:
			delete(byID, w.ID)
		}
	}

	requeued, lost := 0, 0
	for _, id := range order {
		rj, ok := byID[id]
		if !ok { // dropped
			continue
		}
		var deadline time.Time
		if rj.Deadline != 0 {
			deadline = time.Unix(0, rj.Deadline)
		}
		state := rj.State
		errMsg := rj.Err
		if !state.Terminal() {
			if s.cfg.RecoveryRequeues() {
				state = JobQueued
			} else {
				state, errMsg = JobFailed, "lost-on-crash"
			}
		}
		job := newRecoveredJob(rj.ID, rj.Spec, deadline, state, errMsg, rj.Grain)
		if state == JobQueued {
			select {
			case s.queue <- job:
				requeued++
			default:
				// Recovery outgrew the queue; failing loudly beats silently
				// resurrecting more work than the daemon admits.
				job.requestAbort("lost-on-crash: recovery queue overflow", JobFailed)
				job.terminalLogged.Store(true)
				lost++
			}
		} else if !rj.State.Terminal() {
			lost++
		}
		s.store.restore(job)
	}
	if snapNextID > 0 {
		s.store.mu.Lock()
		if snapNextID > s.store.nextID {
			s.store.nextID = snapNextID
		}
		s.store.mu.Unlock()
	}

	pol, err := s.cfg.JournalFsyncPolicy()
	if err != nil {
		return err
	}
	w, err := journal.Open(s.cfg.JournalDir, journal.Options{
		SegmentBytes:  s.cfg.JournalSegmentBytes,
		Fsync:         pol,
		FsyncInterval: s.cfg.JournalFsyncInterval,
	})
	if err != nil {
		return fmt.Errorf("taskserve: journal open: %w", err)
	}
	s.wal = w

	// Journaled lost-on-crash verdicts must outlive the next restart; the
	// requeued jobs stay non-terminal on purpose (they will run again).
	for _, id := range order {
		if j, ok := s.store.get(id); ok && j.State().Terminal() {
			if rj := byID[id]; rj != nil && !rj.State.Terminal() {
				s.journalTerm(j)
			}
		}
	}

	s.recoveredC.Add(int64(len(order)))
	s.tornC.Add(int64(rec.TornTruncations))
	if n := len(order); n > 0 || rec.TornTruncations > 0 {
		log.Printf("taskserve: journal recovered %d jobs (%d requeued, %d lost-on-crash, %d torn-tail truncations)",
			n, requeued, lost, rec.TornTruncations)
	}
	return nil
}

// registerJournalCounters exposes the journal on the same registry as every
// other counter, so /metrics scrapes durability next to the idle-rate.
func (s *Server) registerJournalCounters(reg *counters.Registry) {
	s.recoveredC = counters.NewCumulative("/journal/recovered-jobs")
	s.tornC = counters.NewCumulative("/journal/torn-tail-truncations")
	reg.MustRegister(s.recoveredC)
	reg.MustRegister(s.tornC)
	reg.MustRegister(counters.NewDerived("/journal/appends", func() float64 {
		return float64(s.wal.Appends())
	}))
	reg.MustRegister(counters.NewDerived("/journal/fsyncs", func() float64 {
		return float64(s.wal.Fsyncs())
	}))
	reg.MustRegister(counters.NewDerived("/journal/group-commit-size", func() float64 {
		return float64(s.wal.LastGroupSize())
	}))
	reg.MustRegister(counters.NewDerived("/journal/appends-batched", func() float64 {
		return float64(s.wal.AppendsBatched())
	}))
}

// journalAppend marshals and appends one record. Callers on the admission
// path treat an error as "durability unavailable" and refuse the job; the
// rest are best-effort (a lost start/term record only widens the replay
// window, it never loses an acknowledged job).
func (s *Server) journalAppend(rec walRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = s.wal.Append(b)
	return err
}

// journalAdmitBatch persists a batch of admissions (a single submit is a
// batch of one) as one vectored append: every record shares a single frame
// write and — under the always policy — a single fsync, so the durability
// cost of N admitted jobs is one group commit. It must succeed before any of
// the batch's 202s go out.
func (s *Server) journalAdmitBatch(jobs []*Job) error {
	payloads := make([][]byte, 0, len(jobs))
	for _, job := range jobs {
		spec, deadline, _, _, _ := job.journalState()
		var dl int64
		if !deadline.IsZero() {
			dl = deadline.UnixNano()
		}
		b, err := json.Marshal(walRecord{T: walAdmit, ID: job.ID(), Spec: &spec, Deadline: dl})
		if err != nil {
			return err
		}
		payloads = append(payloads, b)
	}
	_, err := s.wal.AppendBatch(payloads)
	return err
}

// journalDrop rescinds a journaled admission that never ran.
func (s *Server) journalDrop(id string) {
	if err := s.journalAppend(walRecord{T: walDrop, ID: id}); err != nil && err != journal.ErrKilled {
		log.Printf("taskserve: journal drop %s: %v", id, err)
	}
}

// journalStart records the queued→running transition.
func (s *Server) journalStart(job *Job) {
	_, _, _, _, grain := job.journalState()
	if err := s.journalAppend(walRecord{T: walStart, ID: job.ID(), Grain: grain}); err != nil && err != journal.ErrKilled {
		log.Printf("taskserve: journal start %s: %v", job.ID(), err)
	}
}

// journalTerm records a job's terminal verdict.
func (s *Server) journalTerm(job *Job) {
	_, _, state, errMsg, _ := job.journalState()
	if err := s.journalAppend(walRecord{T: walTerm, ID: job.ID(), State: state, Err: errMsg}); err != nil && err != journal.ErrKilled {
		log.Printf("taskserve: journal term %s: %v", job.ID(), err)
	}
}

// journalCompact writes a full-store snapshot, letting the journal delete
// every segment wholly below it. Called after TTL eviction (so the journal
// forgets what the store forgot) and on clean drain (so restart recovers to
// an empty non-terminal set without replay).
func (s *Server) journalCompact() {
	jobs := s.store.list()
	s.store.mu.Lock()
	nextID := s.store.nextID
	s.store.mu.Unlock()
	snap := walSnapshot{NextID: nextID, Jobs: make([]walSnapJob, 0, len(jobs))}
	for _, j := range jobs {
		spec, deadline, state, errMsg, grain := j.journalState()
		var dl int64
		if !deadline.IsZero() {
			dl = deadline.UnixNano()
		}
		snap.Jobs = append(snap.Jobs, walSnapJob{
			ID: j.ID(), Spec: spec, State: state, Err: errMsg, Grain: grain, Deadline: dl,
		})
	}
	b, err := json.Marshal(snap)
	if err != nil {
		log.Printf("taskserve: journal snapshot marshal: %v", err)
		return
	}
	if err := s.wal.Snapshot(b); err != nil && err != journal.ErrKilled {
		log.Printf("taskserve: journal snapshot: %v", err)
	}
}

// sweeper TTL-evicts terminal jobs and mirrors each eviction with a journal
// compaction, so neither the store nor the journal grows without bound on a
// long-lived daemon.
func (s *Server) sweeper() {
	defer s.sweepWG.Done()
	tick := s.cfg.TerminalTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			if n := s.store.evictTerminalOlderThan(time.Now().Add(-s.cfg.TerminalTTL)); n > 0 && s.wal != nil {
				s.journalCompact()
			}
		}
	}
}
