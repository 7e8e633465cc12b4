package taskserve

import (
	"log"
	"time"

	"taskgrain/internal/counters"
	"taskgrain/internal/journal"
)

// Journal record kinds. One record is appended per lifecycle transition:
// admit (durable before the 202 is issued, so an acknowledged job is always
// recoverable), start (grain chosen, task group headed for the runtime),
// term (exactly one per job, guarded by Job.terminalLogged), and drop (an
// admit that was rescinded before the job ever ran — shed on a full queue or
// a drain race — durable before the shed reply, so recovery forgets it
// rather than resurrect it). Start and term are deltas that ride the next
// commit: one fsync per admitted job.
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

// openJournal recovers the journal directory into the job store through
// the ledger, re-queuing or failing non-terminal survivors per the recovery
// policy, and opens it for appending. Called from New before Start, so
// replayed jobs sit in the queue until the runners launch.
func (s *Server) openJournal(reg *counters.Registry) error {
	var verdicts []*Job // lost-on-crash verdicts the recovery policy reached
	wal, err := journal.OpenLedger(s.cfg.JournalDir, s.cfg.JournalOptions(), reg, journal.Tier[walRecord, walSnapshot]{
		Name: "taskserve",
		Replay: func(snap walSnapshot, recs []walRecord) (restored int, err error) {
			restored, verdicts = s.replay(snap, recs)
			return restored, nil
		},
		Capture: s.journalCapture,
	})
	if err != nil {
		return err
	}
	s.wal = wal
	// Journaled lost-on-crash verdicts must outlive the next restart; the
	// requeued jobs stay non-terminal on purpose (they will run again).
	for _, j := range verdicts {
		s.journalTerm(j)
	}
	return nil
}

// replay folds the snapshot and the records after it into the job store. It
// returns how many jobs it restored and which of them recovery turned into
// lost-on-crash failures.
func (s *Server) replay(snap walSnapshot, recs []walRecord) (restored int, verdicts []*Job) {
	// The replay accumulator per job is its snapshot form.
	byID := make(map[string]*walSnapJob)
	var order []string
	for i := range snap.Jobs {
		byID[snap.Jobs[i].ID] = &snap.Jobs[i]
		order = append(order, snap.Jobs[i].ID)
	}
	for _, w := range recs {
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

	requeued := 0
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
			}
		}
		if !rj.State.Terminal() && job.State().Terminal() {
			verdicts = append(verdicts, job)
		}
		s.store.restore(job)
		restored++
	}
	s.store.mu.Lock()
	if snap.NextID > s.store.nextID {
		s.store.nextID = snap.NextID
	}
	s.store.mu.Unlock()
	if requeued > 0 || len(verdicts) > 0 {
		log.Printf("taskserve: journal recovery requeued %d jobs, %d lost-on-crash", requeued, len(verdicts))
	}
	return restored, verdicts
}

// journalAdmitBatch durably persists a batch of admissions (a single submit
// is a batch of one) as one vectored append: every record shares a single
// frame write and — under the always policy — a single fsync, so the
// durability cost of N admitted jobs is one group commit. It must succeed
// before any of the batch's 202s go out.
func (s *Server) journalAdmitBatch(jobs []*Job) error {
	recs := make([]walRecord, len(jobs))
	for i, job := range jobs {
		spec, deadline, _, _, _ := job.journalState()
		recs[i] = walRecord{T: walAdmit, ID: job.ID(), Spec: &spec, Deadline: unixNano(deadline)}
	}
	return s.wal.AppendBatch(recs)
}

// journalDrop durably rescinds journaled admissions that will never run, one
// drop record each, in one vectored append.
func (s *Server) journalDrop(jobs []*Job) {
	recs := make([]walRecord, len(jobs))
	for i, job := range jobs {
		recs[i] = walRecord{T: walDrop, ID: job.ID()}
	}
	s.wal.Commit(recs)
}

// journalStart records the queued→running transition as a delta: losing it
// only replays the job as queued.
func (s *Server) journalStart(job *Job) {
	_, _, _, _, grain := job.journalState()
	s.wal.Note(walRecord{T: walStart, ID: job.ID(), Grain: grain})
}

// journalTerm records a job's terminal verdict as a delta: losing it replays
// the job as running, which recovery requeues or fails lost-on-crash.
func (s *Server) journalTerm(job *Job) {
	_, _, state, errMsg, _ := job.journalState()
	s.wal.Note(walRecord{T: walTerm, ID: job.ID(), State: state, Err: errMsg})
}

// journalCompact writes a full-store snapshot. Called after TTL eviction (so
// the journal forgets what the store forgot) and on clean drain (so restart
// recovers to an empty non-terminal set without replay).
func (s *Server) journalCompact() { s.wal.Compact() }

// journalCapture is the ledger's state capture: the whole store, under the
// journal lock.
func (s *Server) journalCapture() walSnapshot {
	jobs := s.store.list()
	s.store.mu.Lock()
	nextID := s.store.nextID
	s.store.mu.Unlock()
	snap := walSnapshot{NextID: nextID, Jobs: make([]walSnapJob, 0, len(jobs))}
	for _, j := range jobs {
		spec, deadline, state, errMsg, grain := j.journalState()
		snap.Jobs = append(snap.Jobs, walSnapJob{
			ID: j.ID(), Spec: spec, State: state, Err: errMsg, Grain: grain, Deadline: unixNano(deadline),
		})
	}
	return snap
}

// unixNano renders a deadline as journaled: unix ns, 0 for none.
func unixNano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// sweepTerminal is the TTL sweeper's body: it evicts terminal jobs older
// than terminal_ttl and mirrors each eviction with a journal compaction, so
// neither the store nor the journal grows without bound on a long-lived
// daemon.
func (s *Server) sweepTerminal() {
	if n := s.store.evictTerminalOlderThan(time.Now().Add(-s.cfg.TerminalTTL)); n > 0 && s.wal != nil {
		s.journalCompact()
	}
}
