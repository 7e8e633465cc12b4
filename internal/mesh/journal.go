package mesh

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"taskgrain/internal/journal"
	"taskgrain/internal/wire"
)

// Gateway journal record kinds: place (a node admitted the job at a new
// placement epoch — the spec rides along so a restarted gateway can fail the
// job over again; durable) and term (a terminal node state was observed; a
// delta).
const (
	meshWalPlace = "place"
	meshWalTerm  = "term"
)

// meshWalRecord is one journaled placement-epoch transition.
type meshWalRecord struct {
	T         string        `json:"t"`
	ID        string        `json:"id"`
	Key       string        `json:"key,omitempty"`
	Kind      string        `json:"kind,omitempty"`
	Spec      *wire.JobSpec `json:"spec,omitempty"`
	Node      string        `json:"node,omitempty"`
	NodeJobID string        `json:"node_job_id,omitempty"`
	Epoch     int           `json:"epoch,omitempty"`
	State     wire.JobState `json:"state,omitempty"`
}

// meshSnapJob is one job inside a gateway compaction snapshot.
type meshSnapJob struct {
	ID        string        `json:"id"`
	Key       string        `json:"key,omitempty"`
	Kind      string        `json:"kind,omitempty"`
	Spec      *wire.JobSpec `json:"spec,omitempty"`
	Node      string        `json:"node,omitempty"`
	NodeJobID string        `json:"node_job_id,omitempty"`
	Epoch     int           `json:"epoch"`
	Terminal  bool          `json:"terminal,omitempty"`
	State     wire.JobState `json:"state,omitempty"`
}

// meshSnapshot is the full-store state a gateway compaction writes.
type meshSnapshot struct {
	NextID uint64        `json:"next_id"`
	Jobs   []meshSnapJob `json:"jobs"`
}

// openJournal recovers the placement journal into the mesh store through
// the ledger and opens it for appending. Recovered non-terminal jobs keep
// their last placement: the next client poll relays to that node (whose own
// journal preserved the node-local ID), and the normal failover path
// re-places the job if the node is really gone — so a gateway restart
// doesn't orphan in-flight failovers.
func (m *Mesh) openJournal() error {
	wal, err := journal.OpenLedger(m.cfg.JournalDir, m.cfg.JournalOptions(), m.reg, journal.Tier[meshWalRecord, meshSnapshot]{
		Name:    "mesh",
		Replay:  m.replay,
		Capture: m.journalCapture,
	})
	if err != nil {
		return err
	}
	m.wal = wal
	return nil
}

// replay folds the snapshot and the records after it into the mesh store.
func (m *Mesh) replay(snap meshSnapshot, recs []meshWalRecord) (int, error) {
	// The replay accumulator per job is its snapshot form.
	byID := make(map[string]*meshSnapJob)
	var order []string
	for i := range snap.Jobs {
		byID[snap.Jobs[i].ID] = &snap.Jobs[i]
		order = append(order, snap.Jobs[i].ID)
	}
	for _, w := range recs {
		switch w.T {
		case meshWalPlace:
			rj, ok := byID[w.ID]
			if !ok {
				rj = &meshSnapJob{ID: w.ID}
				byID[w.ID] = rj
				order = append(order, w.ID)
			}
			rj.Key, rj.Kind, rj.Spec = w.Key, w.Kind, w.Spec
			rj.Node, rj.NodeJobID, rj.Epoch = w.Node, w.NodeJobID, w.Epoch
		case meshWalTerm:
			if rj, ok := byID[w.ID]; ok && !rj.Terminal {
				rj.Terminal = true
				rj.State = w.State
			}
		}
	}

	now := time.Now()
	jobs := make([]*meshJob, 0, len(order))
	for _, id := range order {
		rj := byID[id]
		if rj.Terminal {
			rj.Spec = nil // a terminal job is never replayed
		}
		num, _ := strconv.ParseUint(strings.TrimPrefix(rj.ID, "m-"), 10, 64)
		j := &meshJob{
			id:        rj.ID,
			key:       rj.Key,
			kind:      rj.Kind,
			num:       num,
			recovered: rj.Terminal,
			spec:      rj.Spec,
			nodeJobID: rj.NodeJobID,
			epoch:     rj.Epoch,
			terminal:  rj.Terminal,
			state:     rj.State,
			submitted: now,
			touched:   now,
		}
		// Re-bind the placement to the registry's node object by name; a node
		// no longer configured leaves the placement empty and the job polls
		// as unplaced until a failover re-places it.
		for _, n := range m.nodes.Nodes() {
			if n.name == rj.Node {
				j.node = n
				break
			}
		}
		if rj.Terminal {
			// A synthetic last view keeps cachedView serving the verdict even
			// though the full node response died with the old process.
			j.lastView = &wire.JobView{ID: rj.NodeJobID, State: rj.State}
		}
		jobs = append(jobs, j)
	}
	// Restored in ID order: the journal keeps no observation order, so the
	// oldest-submitted terminal jobs are the first the retention bound drops.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].num < jobs[b].num })
	for _, j := range jobs {
		m.jobs.restore(j)
	}
	m.jobs.mu.Lock()
	if snap.NextID > m.jobs.nextID {
		m.jobs.nextID = snap.NextID
	}
	m.jobs.mu.Unlock()
	return len(order), nil
}

// journalPlace records the placement epochs one upstream call won, as one
// durable append: under always the 202 that names the placement goes out
// only once an fsync covers it.
func (m *Mesh) journalPlace(jobs []*meshJob) {
	recs := make([]meshWalRecord, len(jobs))
	for i, job := range jobs {
		job.mu.Lock()
		recs[i] = meshWalRecord{
			T: meshWalPlace, ID: job.id, Key: job.key, Kind: job.kind,
			Spec: job.spec, NodeJobID: job.nodeJobID, Epoch: job.epoch,
		}
		if job.node != nil {
			recs[i].Node = job.node.name
		}
		job.mu.Unlock()
	}
	m.wal.Commit(recs)
}

// journalTerm records the first observed terminal state as a delta: losing
// it leaves the job placed, and the next poll observes the verdict again.
func (m *Mesh) journalTerm(job *meshJob) {
	job.mu.Lock()
	rec := meshWalRecord{T: meshWalTerm, ID: job.id, State: job.state}
	job.mu.Unlock()
	m.wal.Note(rec)
}

// journalCompact writes a full-store snapshot so the journal forgets what
// the store forgot (stale-reaped and count-evicted jobs).
func (m *Mesh) journalCompact() { m.wal.Compact() }

// journalCapture is the ledger's state capture: the whole store, under the
// journal lock. Terminal jobs carry no spec: it was released when they
// turned terminal.
func (m *Mesh) journalCapture() meshSnapshot {
	jobs := m.jobs.list()
	m.jobs.mu.Lock()
	nextID := m.jobs.nextID
	m.jobs.mu.Unlock()
	snap := meshSnapshot{NextID: nextID, Jobs: make([]meshSnapJob, 0, len(jobs))}
	for _, j := range jobs {
		j.mu.Lock()
		sj := meshSnapJob{
			ID: j.id, Key: j.key, Kind: j.kind, Spec: j.spec,
			NodeJobID: j.nodeJobID, Epoch: j.epoch, Terminal: j.terminal, State: j.state,
		}
		if j.node != nil {
			sj.Node = j.node.name
		}
		j.mu.Unlock()
		snap.Jobs = append(snap.Jobs, sj)
	}
	return snap
}
