// Package trace records per-task scheduling events — phase begin/end,
// spawn, suspend, resume — and exports them as Chrome trace-event JSON
// (chrome://tracing, Perfetto) or an ASCII utilization summary. Tracing is
// how the granularity study's aggregate metrics (idle-rate, wait time) are
// visually cross-checked: the gaps between phase bars on a worker lane are
// exactly the thread-management overhead and starvation the paper
// quantifies.
//
// A Tracer works with both engines: the native runtime stamps wall-clock
// times, the discrete-event simulator stamps virtual times.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	// PhaseBegin/PhaseEnd bracket one task phase on a worker.
	PhaseBegin Kind = iota
	PhaseEnd
	// Spawn marks task creation (staged).
	Spawn
	// Suspend marks a phase ending in the suspended state.
	Suspend
	// Resume marks a suspended task re-entering a pending queue.
	Resume
	// Steal marks a task claimed from another worker's queue.
	Steal
	// Route marks a mesh gateway placing a job on a node (cross-hop trace;
	// Worker carries the node's lane index, TaskID the mesh job number).
	Route
	// SpillHop marks a submission bouncing off a shedding or unreachable
	// node during mesh spillover.
	SpillHop
	// FailoverHop marks a job resubmitted to another node after its owner
	// died mid-flight.
	FailoverHop
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case PhaseBegin:
		return "phase-begin"
	case PhaseEnd:
		return "phase-end"
	case Spawn:
		return "spawn"
	case Suspend:
		return "suspend"
	case Resume:
		return "resume"
	case Steal:
		return "steal"
	case Route:
		return "route"
	case SpillHop:
		return "spill"
	case FailoverHop:
		return "failover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded scheduling event.
type Event struct {
	Kind   Kind
	TaskID uint64
	Worker int   // executing/claiming worker; -1 when not worker-bound
	TsNs   int64 // time stamp in ns (wall or virtual, engine-defined)
}

// Tracer accumulates events. The zero value is unusable; create with New.
// All methods are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	events []Event // grows to limit, then a ring whose oldest slot is head
	head   int
	limit  int
	drops  int64
}

// New creates a tracer retaining the newest limit events (<=0 means one
// million): once full, each recorded event overwrites the oldest one, so
// tracing can never OOM an experiment and a long-lived tracer always holds
// the most recent window. Overwritten events are counted (Drops) and reported
// by RenderSummary and the Chrome JSON metadata — a truncated trace announces
// itself instead of silently under-reporting the run.
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = 1_000_000
	}
	return &Tracer{limit: limit}
}

// Record appends one event; at the cap it replaces the oldest retained event,
// which is counted as dropped.
func (t *Tracer) Record(e Event) {
	t.mu.Lock()
	if len(t.events) < t.limit {
		t.events = append(t.events, e)
	} else {
		t.events[t.head] = e
		t.head = (t.head + 1) % t.limit
		t.drops++
	}
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Drops returns the number of events overwritten at the retention cap.
func (t *Tracer) Drops() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}

// Events returns a copy of the retained events in recording order.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.head:]...)
	return append(out, t.events[:t.head]...)
}

// phase is one PhaseBegin paired with its PhaseEnd on a worker lane.
type phase struct {
	worker         int
	task           uint64
	beginNs, endNs int64
	open           bool // no end in the trace: closed at the max observed timestamp
}

// pairPhases pairs each PhaseEnd with the open PhaseBegin of the same task on
// the same lane (a task runs one phase at a time), and returns the phases
// with the max observed timestamp. An end whose begin is not among the events
// (the ring overwrote it) is ignored; a begin whose end is missing (it fell
// outside the retained window, or the run was cut short) is closed at that
// max timestamp so its busy time is not dropped.
func pairPhases(events []Event) (phases []phase, maxTs int64) {
	type lane struct {
		worker int
		task   uint64
	}
	open := map[lane]int64{} // begin timestamp
	for _, e := range events {
		if e.TsNs > maxTs {
			maxTs = e.TsNs
		}
		k := lane{e.Worker, e.TaskID}
		switch e.Kind {
		case PhaseBegin:
			open[k] = e.TsNs
		case PhaseEnd:
			if b, ok := open[k]; ok {
				delete(open, k)
				phases = append(phases, phase{worker: e.Worker, task: e.TaskID, beginNs: b, endNs: e.TsNs})
			}
		}
	}
	for k, b := range open {
		phases = append(phases, phase{worker: k.worker, task: k.task, beginNs: b, endNs: maxTs, open: true})
	}
	return phases, maxTs
}

// chromeEvent is the Chrome trace-event JSON shape.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeJSON emits the trace in Chrome trace-event format: one
// complete ("X") slice per phase on its worker lane, instant events for
// spawn/suspend/resume/steal and the mesh hops. Phases are paired by
// pairPhases, so an end whose begin the ring overwrote is left out and a
// phase still open when the trace ends is closed at the max observed
// timestamp; the otherData metadata records retained/dropped event counts
// and how many spans were closed this way.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	events := t.Events()
	var out []chromeEvent
	for _, e := range events {
		if e.Kind == PhaseBegin || e.Kind == PhaseEnd {
			continue
		}
		out = append(out, chromeEvent{
			Name: e.Kind.String(),
			Ph:   "i",
			Ts:   float64(e.TsNs) / 1000,
			Pid:  0,
			Tid:  e.Worker,
			Args: map[string]any{"task": e.TaskID},
		})
	}
	phases, maxTs := pairPhases(events)
	openSpans := 0
	for _, p := range phases {
		ce := chromeEvent{
			Name: fmt.Sprintf("task %d", p.task),
			Ph:   "X",
			Ts:   float64(p.beginNs) / 1000,
			Dur:  float64(p.endNs-p.beginNs) / 1000,
			Pid:  0,
			Tid:  p.worker,
			Args: map[string]any{"task": p.task},
		}
		if p.open {
			openSpans++
			ce.Name += " (open)"
			ce.Args["open"] = true
		}
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents": out,
		"otherData": map[string]any{
			"retainedEvents": len(events),
			"droppedEvents":  t.Drops(),
			"openSpansClosedAtNs": map[string]any{
				"count": openSpans,
				"maxTs": maxTs,
			},
		},
	})
}

// WorkerStats summarizes one worker's lane.
type WorkerStats struct {
	Worker  int
	Phases  int
	BusyNs  int64
	FirstNs int64
	LastNs  int64
}

// Utilization returns BusyNs over the worker's active span (0 when empty).
func (s WorkerStats) Utilization() float64 {
	span := s.LastNs - s.FirstNs
	if span <= 0 {
		return 0
	}
	u := float64(s.BusyNs) / float64(span)
	if u > 1 {
		u = 1
	}
	return u
}

// Summary computes per-worker phase counts and busy time from the trace,
// plus global event-kind counts. Phases are paired by pairPhases: one still
// open at trace end is closed at the max observed timestamp, so a truncated
// trace does not under-report the busy time of the exact long phases that
// outran it.
func (t *Tracer) Summary() ([]WorkerStats, map[Kind]int) {
	events := t.Events()
	perWorker := map[int]*WorkerStats{}
	kinds := map[Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Worker < 0 {
			continue
		}
		ws, ok := perWorker[e.Worker]
		if !ok {
			ws = &WorkerStats{Worker: e.Worker, FirstNs: e.TsNs}
			perWorker[e.Worker] = ws
		}
		if e.TsNs < ws.FirstNs {
			ws.FirstNs = e.TsNs
		}
		if e.TsNs > ws.LastNs {
			ws.LastNs = e.TsNs
		}
	}
	phases, _ := pairPhases(events)
	for _, p := range phases {
		ws, ok := perWorker[p.worker]
		if !ok {
			continue
		}
		ws.BusyNs += p.endNs - p.beginNs
		ws.Phases++
		if p.endNs > ws.LastNs {
			ws.LastNs = p.endNs
		}
	}
	out := make([]WorkerStats, 0, len(perWorker))
	for _, ws := range perWorker {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out, kinds
}

// RenderSummary formats Summary as text.
func (t *Tracer) RenderSummary() string {
	stats, kinds := t.Summary()
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events retained\n", t.Len())
	if d := t.Drops(); d > 0 {
		fmt.Fprintf(&b, "  dropped      %d (retention cap reached; totals under-report)\n", d)
	}
	kindNames := []Kind{Spawn, PhaseBegin, PhaseEnd, Suspend, Resume, Steal, Route, SpillHop, FailoverHop}
	for _, k := range kindNames {
		if kinds[k] > 0 {
			fmt.Fprintf(&b, "  %-12s %d\n", k, kinds[k])
		}
	}
	for _, ws := range stats {
		fmt.Fprintf(&b, "  worker %-3d phases %-8d busy %.3fms  utilization %.1f%%\n",
			ws.Worker, ws.Phases, float64(ws.BusyNs)/1e6, ws.Utilization()*100)
	}
	return b.String()
}

// TimelineBucket is one slice of a bucketed utilization timeline.
type TimelineBucket struct {
	StartNs int64
	// Busy is the fraction of worker-time in this bucket spent inside task
	// phases, aggregated over all workers seen in the trace.
	Busy float64
}

// Timeline buckets the trace into fixed windows and returns per-window
// aggregate utilization — the dynamic, interval-resolved view of the
// idle-rate the paper computes over whole runs ("can be calculated over any
// interval of interest", Sec. II-A). bucketNs <= 0 defaults to 1ms.
func (t *Tracer) Timeline(bucketNs int64) []TimelineBucket {
	if bucketNs <= 0 {
		bucketNs = 1_000_000
	}
	events := t.Events()
	workers := map[int]bool{}
	for _, ev := range events {
		if ev.Worker >= 0 {
			workers[ev.Worker] = true
		}
	}
	// Phases still open at trace end come back closed at the max observed
	// timestamp, so the trailing buckets keep the busy time of phases that
	// outran the trace.
	spans, maxTs := pairPhases(events)
	if maxTs == 0 || len(workers) == 0 {
		return nil
	}
	nBuckets := int(maxTs/bucketNs) + 1
	busy := make([]int64, nBuckets)
	for _, s := range spans {
		for cur := s.beginNs; cur < s.endNs; {
			idx := cur / bucketNs
			end := (idx + 1) * bucketNs
			if end > s.endNs {
				end = s.endNs
			}
			if int(idx) < nBuckets {
				busy[idx] += end - cur
			}
			cur = end
		}
	}
	denom := float64(bucketNs) * float64(len(workers))
	out := make([]TimelineBucket, nBuckets)
	for i := range out {
		out[i] = TimelineBucket{
			StartNs: int64(i) * bucketNs,
			Busy:    float64(busy[i]) / denom,
		}
	}
	return out
}
