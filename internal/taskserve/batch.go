// Admission: every submission — POST /v1/jobs, POST /v1/jobs/batch, Submit,
// SubmitBatch — goes through the one admit core below, a single job as a
// batch of one. A batch pays ONE admission check, ONE vectored journal append
// and ONE queue-mutex section, amortizing the serving layer's per-request
// overhead the same way SpawnBatch amortizes the runtime's per-spawn overhead
// (Eq. 3/4: a fixed cost paid once per batch instead of once per job moves
// the effective minimum grain left).
//
// Admission is partial by design: the batch admits a prefix bounded by the
// queue's remaining capacity and sheds the suffix with per-item 429 +
// Retry-After, so one oversized batch degrades into "some work now, retry the
// rest" instead of all-or-nothing.
package taskserve

import (
	"fmt"
	"time"
)

// batchItem is one per-spec outcome of an admit: exactly one of job
// (admitted, or replayed via idempotency key) or shed is set. fresh marks a
// job this call enqueued, as opposed to a replay.
type batchItem struct {
	job   *Job
	shed  *shedError
	fresh bool
}

// SubmitBatch admits a batch of jobs through the admit core and accounts it
// on the /server/batch/* counters, which therefore count batch-entry calls
// only — a single Submit shares the core but not the counters. Results are
// index-aligned with specs.
func (s *Server) SubmitBatch(specs []JobSpec) []batchItem {
	results := s.admit(specs)
	enqueued, shed := 0, false
	for _, r := range results {
		if r.fresh {
			enqueued++
		}
		shed = shed || r.shed != nil
	}
	if enqueued > 0 {
		s.batchSubmitted.Inc()
		s.batchJobs.Add(int64(enqueued))
		// Every shed cause but the queue cut refuses the whole batch, so a
		// shed next to an enqueue is a partial admission.
		if shed {
			s.batchSheds.Inc()
		}
	}
	return results
}

// admit admits and enqueues already-validated specs under one admission
// check and one journal group commit. Results are index-aligned with specs.
//
// A spec carrying an idempotency key replays rather than re-executes: if a
// retained job was already admitted under the same key, that job is returned
// without a second admission — even while draining, so a mesh gateway
// resubmitting after a suspected node death never double-runs work the node
// in fact still holds.
func (s *Server) admit(specs []JobSpec) []batchItem {
	results := make([]batchItem, len(specs))
	shedAll := func(se *shedError, idxs []int) {
		for _, i := range idxs {
			results[i] = batchItem{shed: se}
			s.shed.Inc()
		}
	}

	fresh := make([]int, 0, len(specs))
	for i := range specs {
		specs[i] = withDefaults(specs[i])
		if j, ok := s.store.getByKey(specs[i].IdempotencyKey); ok {
			results[i] = batchItem{job: j}
			continue
		}
		fresh = append(fresh, i)
	}
	if len(fresh) == 0 {
		return results
	}
	if s.draining.Load() {
		shedAll(s.shedDraining(), fresh)
		return results
	}
	// One admission check covers the batch: the queue-capacity prefix cut
	// below is exact regardless, and the idle-rate/backlog signals move on
	// sampling intervals far coarser than one batch.
	if se := s.adm.check(); se != nil {
		shedAll(se, fresh)
		return results
	}

	added := make([]int, 0, len(fresh))
	jobs := make([]*Job, 0, len(fresh))
	for _, i := range fresh {
		var deadline time.Time
		d := time.Duration(specs[i].DeadlineMillis) * time.Millisecond
		if d == 0 {
			d = s.cfg.DefaultDeadline
		}
		if d > 0 {
			deadline = time.Now().Add(d)
		}
		job, dup := s.store.add(specs[i], deadline)
		results[i] = batchItem{job: job}
		if dup {
			// A concurrent submission with the same idempotency key won the
			// store race; hand its job back instead of enqueueing a second run.
			continue
		}
		added = append(added, i)
		jobs = append(jobs, job)
	}
	if len(added) == 0 {
		return results
	}
	// rescind takes back store entries that will not run and sheds their
	// items. Their drop records go out as one durable append before the
	// shed reply does: recovery must never resurrect a job refused with a
	// 429 or 503. That holds when the admit append itself failed too, since
	// its frames may be on disk all the same.
	rescind := func(se *shedError, from int) {
		for k := from; k < len(added); k++ {
			s.store.remove(jobs[k].ID())
		}
		if s.wal != nil {
			s.journalDrop(jobs[from:])
		}
		shedAll(se, added[from:])
	}

	// One durable vectored append journals every admit record — one
	// group-commit fsync for N jobs. The admit records must be durable
	// before any 202 goes out: an acknowledged job that the journal never
	// saw would vanish in a crash, which is precisely the ledger violation
	// the journal exists to prevent.
	if s.wal != nil {
		if err := s.journalAdmitBatch(jobs); err != nil {
			rescind(&shedError{status: 503, reason: "journal unavailable", retryAfter: s.cfg.RetryAfter}, 0)
			return results
		}
	}

	// One queue-mutex acquisition enqueues the whole batch. The admission
	// check and these sends race against concurrent submitters and Drain; the
	// mutex-guarded non-blocking sends are the backstop that keeps the
	// MaxQueuedJobs bound exact and never blocks a request handler. The first
	// full send marks the partial-admission cut — that item and the entire
	// suffix shed, because a queue that just refused item k cannot have room
	// for item k+1 either.
	s.queueMu.Lock()
	if s.draining.Load() {
		s.queueMu.Unlock()
		rescind(s.shedDraining(), 0)
		return results
	}
	cut := 0
sends:
	for ; cut < len(jobs); cut++ {
		select {
		case s.queue <- jobs[cut]:
		default:
			break sends
		}
	}
	s.queueMu.Unlock()

	if cut < len(jobs) {
		rescind(&shedError{
			status:     429,
			reason:     fmt.Sprintf("job queue full (limit %d)", s.cfg.MaxQueuedJobs),
			retryAfter: s.cfg.RetryAfter,
		}, cut)
	}
	for k := 0; k < cut; k++ {
		results[added[k]].fresh = true
		s.submitted.Inc()
		if jobs[k].spec.TraceContext != "" {
			s.traced.Inc()
		}
	}
	return results
}

func (s *Server) shedDraining() *shedError {
	return &shedError{status: 503, reason: "draining", retryAfter: s.cfg.RetryAfter}
}
