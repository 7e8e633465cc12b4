package mesh

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// meshJob is one gateway-admitted submission: the mesh-scoped ID clients
// poll, the idempotency key every (re)submission carries, the spec for
// failover replays, and the current node placement.
type meshJob struct {
	id   string
	key  string
	kind string
	num  uint64 // numeric part of id; the trace TaskID for hop events
	// recovered: restored as terminal, so lastView is the journal's bare
	// verdict (no result payload), not a node reply.
	recovered bool
	// spec is the hop-independent replay form forwarded to nodes: key
	// included, no trace_context (each hop stamps a fresh child span). It is
	// never written through — the journal shares the pointer — and released
	// on the first terminal observation: a terminal job is never replayed.
	spec *wire.JobSpec

	// span is the job's root trace context: minted at submission (or
	// adopted from the client's Taskgrain-Trace header), with a child span
	// stamped onto every forwarded hop. Guarded by mu; read-only after
	// submit assigns it.
	span trace.SpanContext

	// failoverMu serializes failover resubmissions: a poller re-placing the
	// job holds it across the network round-trips so concurrent pollers
	// cannot race the same epoch onto two different nodes. It is never held
	// together with mu by the same goroutine path ordering (failoverMu
	// first, then mu inside placement/place).
	failoverMu sync.Mutex

	mu        sync.Mutex
	node      *Node
	nodeJobID string
	epoch     int  // bumped per placement; serializes concurrent failovers
	retries   int  // failover resubmissions
	spills    int  // 429/transport spillovers during initial submit
	terminal  bool // a terminal state has been observed
	state     wire.JobState
	lastView  *wire.JobView // last node response; serves polls once terminal
	submitted time.Time
	touched   time.Time // last client contact; drives stale eviction
}

// touch refreshes the job's last-access time. The stale reaper only evicts
// non-terminal jobs nobody has touched for a full staleJobAge, so an
// actively polled long-running job is never reaped while a submit-and-forget
// one eventually is.
func (j *meshJob) touch() {
	j.mu.Lock()
	j.touched = time.Now()
	j.mu.Unlock()
}

// traceSpan returns the job's root trace context (invalid until submit
// assigns it).
func (j *meshJob) traceSpan() trace.SpanContext {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.span
}

// replaySpec returns the spec every (re)submission of the job forwards (the
// zero spec for a job recovered from a journal record that carried none).
func (j *meshJob) replaySpec() wire.JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.spec == nil {
		return wire.JobSpec{}
	}
	return *j.spec
}

// placement returns the job's current node, node-local ID, and epoch.
func (j *meshJob) placement() (*Node, string, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node, j.nodeJobID, j.epoch
}

// place records a (re)placement. For failovers the caller passes the epoch
// it observed; a stale epoch means another poller already re-placed the job
// and this placement is discarded (reported false).
func (j *meshJob) place(n *Node, nodeJobID string, fromEpoch int, isFailover bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.epoch != fromEpoch {
		return false
	}
	j.node = n
	j.nodeJobID = nodeJobID
	j.epoch++
	if isFailover {
		j.retries++
	}
	return true
}

// observe records a node's view of the job, tracking terminal transitions.
// Reports whether this observation was the first terminal one.
func (j *meshJob) observe(view wire.JobView) (newlyTerminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal {
		return false
	}
	j.state = view.State
	j.lastView = &view
	j.terminal = view.State.Terminal()
	if j.terminal {
		j.spec = nil
	}
	return j.terminal
}

// snapshot returns the job's mesh-level status fields.
func (j *meshJob) snapshot() (node string, retries, spills int, terminal bool, state wire.JobState, lastView *wire.JobView) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.node != nil {
		node = j.node.name
	}
	return node, j.retries, j.spills, j.terminal, j.state, j.lastView
}

// retainMeshJobs bounds how many terminal mesh jobs the gateway keeps for
// status polling, mirroring the node-side jobStore retention.
const retainMeshJobs = 4096

// Stale-job reaping: terminal jobs are bounded by retainMeshJobs, but a job
// only *becomes* terminal when a client poll relays a terminal node response
// — a submit-and-forget client (or a job whose failover exhausted) would
// otherwise leave its non-terminal entry in the gateway store forever. The
// reaper evicts non-terminal jobs untouched for staleJobAge; the jobs
// themselves live on at the nodes, so an evicted ID merely polls as 404 at
// the gateway, exactly like one displaced by the terminal-count bound.
const (
	staleJobAge        = 30 * time.Minute
	staleSweepInterval = time.Minute
)

// meshStore indexes mesh jobs by gateway-scoped ID. Retention is O(1) per job:
// retired is a FIFO ring of the retained terminal jobs' IDs in the order they
// turned terminal, and a push onto the full ring evicts the job whose slot it
// takes. Non-terminal jobs are not in the ring, so never count-evicted.
type meshStore struct {
	mu        sync.Mutex
	jobs      map[string]*meshJob
	retired   []string // grows to retain, then a ring whose oldest slot is head
	head      int
	retain    int
	displaced bool // a terminal job was count-evicted since takeDisplaced
	nextID    uint64
}

func newMeshStore(retain int) *meshStore {
	return &meshStore{jobs: make(map[string]*meshJob), retain: retain}
}

// add registers a new mesh job under a fresh "m-<n>" ID; the caller fills in
// the key (which may embed that ID), spec and span.
func (st *meshStore) add(kind string) *meshJob {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	now := time.Now()
	j := &meshJob{
		id:        fmt.Sprintf("m-%d", st.nextID),
		kind:      kind,
		num:       st.nextID,
		submitted: now,
		touched:   now,
	}
	st.jobs[j.id] = j
	return j
}

// restore inserts a journal-recovered job under its original ID, advancing
// nextID past it so fresh submissions never collide with recovered ones; a
// terminal one is retired at once, so the retention bound survives restarts.
func (st *meshStore) restore(j *meshJob) {
	st.mu.Lock()
	_, dup := st.jobs[j.id]
	if !dup {
		st.jobs[j.id] = j
		if j.num >= st.nextID {
			st.nextID = j.num
		}
	}
	st.mu.Unlock()
	if !dup && j.terminal {
		st.retire(j)
	}
}

// retire pushes a job that just turned terminal onto the ring; on a full ring
// the oldest-retired job is evicted to make room.
func (st *meshStore) retire(j *meshJob) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.jobs[j.id] != j {
		return // the stale reaper judged it abandoned an instant before
	}
	if len(st.retired) < st.retain {
		st.retired = append(st.retired, j.id)
		return
	}
	delete(st.jobs, st.retired[st.head])
	st.retired[st.head] = j.id
	st.head = (st.head + 1) % st.retain
	st.displaced = true
}

// takeDisplaced reports whether count-eviction dropped a job since the last
// call, clearing the mark: until compacted, the journal still holds that job.
func (st *meshStore) takeDisplaced() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	d := st.displaced
	st.displaced = false
	return d
}

// remove deletes a job whose submission never landed (never in the ring).
func (st *meshStore) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.jobs, id)
}

// get looks a mesh job up by ID, refreshing its last-access time.
func (st *meshStore) get(id string) (*meshJob, bool) {
	st.mu.Lock()
	j, ok := st.jobs[id]
	st.mu.Unlock()
	if ok {
		j.touch()
	}
	return j, ok
}

// list snapshots every retained job in submission order; it sorts, so it is
// for the listing endpoint and journal compaction, not the request path.
func (st *meshStore) list() []*meshJob {
	st.mu.Lock()
	out := make([]*meshJob, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, j)
	}
	st.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].num < out[b].num })
	return out
}

// evictStale drops non-terminal jobs whose last client contact is older than
// maxAge, returning how many were evicted. Terminal jobs are left to the
// count-bounded eviction; actively polled jobs stay because get refreshes
// their touch time.
func (st *meshStore) evictStale(maxAge time.Duration) (evicted int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cutoff := time.Now().Add(-maxAge)
	for id, j := range st.jobs {
		j.mu.Lock()
		stale := !j.terminal && j.touched.Before(cutoff)
		j.mu.Unlock()
		if stale {
			delete(st.jobs, id)
			evicted++
		}
	}
	return evicted
}
