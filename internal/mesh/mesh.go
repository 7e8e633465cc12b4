// Package mesh federates multiple taskgraind nodes behind one gateway — the
// distributed edition of the paper's counter-driven control loops. The same
// runtime-observable signals PR 1 uses for single-node admission control
// (Eq. 1 idle-rate, pending/backlog depth) become *routing* signals here:
//
//   - a node registry heartbeats each node's introspect surface (/healthz
//     for liveness and drain state, /debug/counters for idle-rate, task
//     backlog, and job occupancy), holding a live load map of the cluster;
//   - a router picks the target node per job via pluggable policies
//     (least-idle-rate, least-inflight, round-robin) with consistent
//     per-kind affinity so each node's adaptive-grain controllers stay warm;
//   - a forwarding proxy relays the /v1/jobs API, spilling over to the
//     next-best node when a node sheds (429/503 + Retry-After), hedging
//     status long-polls against hung nodes, and failing over idempotently
//     when a node dies mid-job.
//
// The gateway serves its own introspect surface: per-node routed/spill/
// failover counters next to the mesh totals, in the same counter idiom the
// nodes use for their scheduler counters.
package mesh

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/counters"
	"taskgrain/internal/journal"
	"taskgrain/internal/loop"
	"taskgrain/internal/policyengine"
	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
)

// traceEventLimit sizes the gateway's hop tracer ring (512 KB of events).
// Routing events are a few per job, so /mesh/trace shows the most recent few
// thousand jobs' hops however long the gateway has run; the trace output
// reports how many older events the ring has overwritten.
const traceEventLimit = 16_384

// Mesh is the cluster dispatch gateway.
type Mesh struct {
	cfg    config.Mesh
	policy Policy
	client *http.Client

	// mode gates the gateway's half of the control plane: grain-consensus
	// hints are pushed to rejoining nodes only under actuate; advisory
	// records what would have been pushed and stops there.
	mode policyengine.Mode
	rec  *policyengine.Recorder

	reg    *counters.Registry
	nodes  *Registry
	router *router
	jobs   *meshStore

	id        string    // gateway instance tag, prefixed onto idempotency keys
	startTime time.Time // set once in newMesh; the trace clock's zero

	// sweeper runs sweep every staleSweepInterval once Start has run.
	startOnce  sync.Once
	sweepMeter loop.Meter
	sweeper    *loop.Loop

	// wal journals placement epochs and terminal observations when
	// cfg.JournalDir is set, so a restarted gateway still knows where every
	// in-flight job lives instead of orphaning its failover state.
	wal *journal.Ledger[meshWalRecord, meshSnapshot]

	// tracer records every routing hop (Route/SpillHop/FailoverHop) on the
	// target node's lane, plus a phase span per placement, so one job's
	// whole path through the cluster renders as a single timeline.
	tracer *trace.Tracer

	submitted *counters.Cumulative // jobs some node admitted
	rejected  *counters.Cumulative // submissions refused by the whole mesh
	spillsC   *counters.Cumulative // per-node bounces during submission
	failovers *counters.Cumulative // dead-node resubmissions
	terminalC *counters.Cumulative // terminal states observed
	staleC    *counters.Cumulative // abandoned non-terminal jobs reaped
	hopsC     *counters.Cumulative // trace hops recorded (route+spill+failover)

	batchForwarded *counters.Cumulative // per-node sub-batches forwarded upstream
	batchSplit     atomic.Int64         // node groups the most recent batch split into

	hintsPushed *counters.Cumulative // grain-consensus hints delivered to rejoining nodes
}

// New builds a gateway from the configuration. Start launches the
// heartbeats.
func New(cfg config.Mesh) (*Mesh, error) { return newMesh(cfg, retainMeshJobs) }

// newMesh is New with the terminal-job retention bound as a parameter, so
// tests can reach count-eviction (and recover across it) with a few jobs.
func newMesh(cfg config.Mesh, retain int) (*Mesh, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	policy, err := ParsePolicy(cfg.RoutePolicy)
	if err != nil {
		return nil, err
	}
	mode, err := cfg.ControlModeKind()
	if err != nil {
		return nil, err
	}
	m := &Mesh{
		cfg:    cfg,
		policy: policy,
		mode:   mode,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		reg:            counters.NewRegistry(),
		jobs:           newMeshStore(retain),
		id:             fmt.Sprintf("%08x", rand.Uint32()),
		startTime:      time.Now(),
		sweepMeter:     loop.NewMeter("gateway-sweep"),
		tracer:         trace.New(traceEventLimit),
		submitted:      counters.NewCumulative("/mesh/jobs/submitted"),
		rejected:       counters.NewCumulative("/mesh/jobs/rejected"),
		spillsC:        counters.NewCumulative("/mesh/jobs/spills"),
		failovers:      counters.NewCumulative("/mesh/jobs/failovers"),
		terminalC:      counters.NewCumulative("/mesh/jobs/terminal"),
		staleC:         counters.NewCumulative("/mesh/jobs/evicted-stale"),
		hopsC:          counters.NewCumulative("/mesh/trace/hops"),
		batchForwarded: counters.NewCumulative("/mesh/batch/forwarded"),
		hintsPushed:    counters.NewCumulative("/mesh/control/hints-pushed"),
	}
	m.rec = policyengine.NewRecorder(m.reg, 0)
	m.sweepMeter.Register(m.reg)
	m.reg.MustRegister(m.hintsPushed)
	m.reg.MustRegister(m.submitted)
	m.reg.MustRegister(m.rejected)
	m.reg.MustRegister(m.spillsC)
	m.reg.MustRegister(m.failovers)
	m.reg.MustRegister(m.terminalC)
	m.reg.MustRegister(m.staleC)
	m.reg.MustRegister(m.hopsC)
	m.reg.MustRegister(m.batchForwarded)
	m.reg.MustRegister(counters.NewDerived("/mesh/batch/split-factor", func() float64 {
		return float64(m.batchSplit.Load())
	}))

	m.nodes, err = newRegistry(cfg, m.client, m.reg)
	if err != nil {
		return nil, err
	}
	// A node rejoining the routing set (restart, partition heal, first sweep)
	// inherits the cluster's converged grains instead of re-walking the
	// U-curve from its configured floor.
	m.nodes.OnJoin(m.pushGrainHint)
	m.router = newRouter(m.nodes, policy, cfg.FlowFloor)
	if cfg.JournalDir != "" {
		if err := m.openJournal(); err != nil {
			m.nodes.Stop()
			return nil, err
		}
	}
	m.reg.MustRegister(counters.NewDerived("/mesh/nodes/routable", func() float64 {
		return float64(len(m.nodes.Routable()))
	}))
	m.reg.MustRegister(counters.NewDerived("/mesh/nodes/total", func() float64 {
		return float64(len(m.nodes.Nodes()))
	}))

	// Cluster rollups: the scrape-friendly aggregates /mesh/metrics leads
	// with. Idle-rate averages over routable (healthy) nodes only — a down
	// node's stale reading would drag the cluster figure; occupancy sums
	// over every node still answering (healthy or draining), since draining
	// nodes are finishing real work.
	m.reg.MustRegister(counters.NewDerived("/mesh/cluster/idle-rate", func() float64 {
		nodes := m.nodes.Routable()
		if len(nodes) == 0 {
			return 0
		}
		sum := 0.0
		for _, n := range nodes {
			ir, _, _, _ := n.load()
			sum += ir
		}
		return sum / float64(len(nodes))
	}))
	sumLoad := func(pick func(inflight, queued, running float64) float64) func() float64 {
		return func() float64 {
			sum := 0.0
			for _, n := range m.nodes.Nodes() {
				if s := n.State(); s != NodeHealthy && s != NodeDraining {
					continue
				}
				_, inflight, queued, running := n.load()
				sum += pick(inflight, queued, running)
			}
			return sum
		}
	}
	m.reg.MustRegister(counters.NewDerived("/mesh/cluster/inflight-tasks",
		sumLoad(func(i, _, _ float64) float64 { return i })))
	m.reg.MustRegister(counters.NewDerived("/mesh/cluster/queued-jobs",
		sumLoad(func(_, q, _ float64) float64 { return q })))
	m.reg.MustRegister(counters.NewDerived("/mesh/cluster/running-jobs",
		sumLoad(func(_, _, r float64) float64 { return r })))
	return m, nil
}

// Start sweeps the node set once (so routing works immediately) and launches
// the heartbeat loops and the stale-job sweeper, once.
func (m *Mesh) Start() {
	m.startOnce.Do(func() {
		m.nodes.Start()
		m.sweeper = m.sweepMeter.Every(staleSweepInterval, m.sweep)
	})
}

// Stop terminates the heartbeat loops and the sweeper. In-flight relayed
// requests are not interrupted.
func (m *Mesh) Stop() {
	m.startOnce.Do(func() {}) // orders this read of m.sweeper after Start's write
	m.sweeper.Stop()
	m.nodes.Stop()
	if m.wal != nil {
		m.wal.Close()
	}
}

// Crash simulates a gateway process death for tests: the journal freezes at
// its current durable state (no final compaction, no flush) and the rest of
// the gateway shuts down normally.
func (m *Mesh) Crash() {
	if m.wal != nil {
		m.wal.Kill()
	}
	m.Stop()
}

// sweep evicts non-terminal jobs no client has touched for staleJobAge —
// submit-and-forget submissions would otherwise accumulate in the gateway
// store forever, since a job only turns terminal when a poll relays a
// terminal node response — and compacts the journal when the store forgot
// any job since the last sweep, stale-reaped here or count-evicted on the
// request path: otherwise the journal grows by two records per job forever
// and a restart replays all of it.
func (m *Mesh) sweep() {
	n := m.jobs.evictStale(staleJobAge)
	m.staleC.Add(int64(n))
	if m.wal != nil && (m.jobs.takeDisplaced() || n > 0) {
		m.journalCompact()
	}
}

// Counters returns the gateway's routing-counter registry.
func (m *Mesh) Counters() *counters.Registry { return m.reg }

// NodeRegistry returns the node registry (for tests and embedding).
func (m *Mesh) NodeRegistry() *Registry { return m.nodes }

// Tracer returns the gateway's hop tracer.
func (m *Mesh) Tracer() *trace.Tracer { return m.tracer }

// Alerts relays every member node's own watchdog verdict as of its last
// heartbeat. The gateway judges no node itself: the node's verdict, taken
// over its own engine's intervals, is the one the router reads too.
func (m *Mesh) Alerts() []telemetry.Alert {
	nodes := m.nodes.Nodes()
	out := make([]telemetry.Alert, 0, len(nodes))
	for _, n := range nodes {
		snap, _ := n.Snapshot()
		out = append(out, telemetry.AlertFromSnapshot("node "+n.Name(), snap))
	}
	return out
}

// ControlMode returns the gateway's control-plane mode.
func (m *Mesh) ControlMode() policyengine.Mode { return m.mode }

// ControlDecisions returns the gateway's control-plane decision log, oldest
// first.
func (m *Mesh) ControlDecisions() []policyengine.Decision { return m.rec.Log() }

// The per-kind grain counter names every node exports, from which the
// gateway reads each node's current adaptive grain off the heartbeat
// snapshot: "/server/grain{<kind>}/current".
const (
	grainCounterPrefix = "/server/grain{"
	grainCounterSuffix = "}/current"
)

// GrainConsensus computes the cluster's per-kind grain hint: the median of
// every answering node's current adaptive grain, excluding skip (the node
// about to receive the hint — its own stale reading must not vote). Kinds
// with no reading above zero are omitted; an empty map means the cluster has
// no opinion yet.
func (m *Mesh) GrainConsensus(skip *Node) map[string]int {
	byKind := map[string][]int{}
	for _, n := range m.nodes.Nodes() {
		if n == skip {
			continue
		}
		if s := n.State(); s != NodeHealthy && s != NodeDraining {
			continue
		}
		snap, _ := n.Snapshot()
		for name, v := range snap {
			if !strings.HasPrefix(name, grainCounterPrefix) || !strings.HasSuffix(name, grainCounterSuffix) {
				continue
			}
			kind := name[len(grainCounterPrefix) : len(name)-len(grainCounterSuffix)]
			if kind == "" || v < 1 {
				continue
			}
			byKind[kind] = append(byKind[kind], int(v))
		}
	}
	out := make(map[string]int, len(byKind))
	for kind, vals := range byKind {
		sort.Ints(vals)
		out[kind] = vals[len(vals)/2]
	}
	return out
}

// pushGrainHint delivers the cluster grain consensus to a node that just
// (re)joined the routing set, so it starts at the converged grains instead
// of the configured floor. Under advisory mode the hint is recorded but not
// sent; the node's own guardrail (ApplyHint) still vetoes hints once it has
// walked its own observations. Runs on the joining node's heartbeat
// goroutine.
func (m *Mesh) pushGrainHint(n *Node) {
	hints := m.GrainConsensus(n)
	if len(hints) == 0 {
		return
	}
	kinds := make([]string, 0, len(hints))
	for k := range hints {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, hints[k]))
	}
	desc := fmt.Sprintf("grain hint -> %s: %s", n.Name(), strings.Join(parts, " "))
	if m.mode != policyengine.ModeActuate {
		m.rec.Record(policyengine.Decision{
			At:     time.Now(),
			Policy: "mesh-consensus",
			Action: desc,
			Mode:   policyengine.DecisionAdvisory,
			Veto:   "control_mode=advisory",
		})
		return
	}
	if err := m.postGrainHint(n, hints); err != nil {
		m.rec.Record(policyengine.Decision{
			At:     time.Now(),
			Policy: "mesh-consensus",
			Action: desc,
			Mode:   policyengine.DecisionVetoed,
			Veto:   "push failed: " + err.Error(),
		})
		return
	}
	m.hintsPushed.Inc()
	m.rec.Record(policyengine.Decision{
		At:     time.Now(),
		Policy: "mesh-consensus",
		Action: desc,
		Mode:   policyengine.DecisionActuated,
	})
}

// postGrainHint POSTs the hint set to the node's /control/hint endpoint.
func (m *Mesh) postGrainHint(n *Node, hints map[string]int) error {
	body, err := json.Marshal(map[string]any{
		"grains": hints,
		"source": "mesh-consensus",
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.RequestTimeout)
	defer cancel()
	resp, err := m.do(ctx, http.MethodPost, n.Base()+"/control/hint", body, trace.SpanContext{})
	if err != nil {
		return err
	}
	if resp.status != http.StatusOK {
		return fmt.Errorf("mesh: %s /control/hint: %d", n.Name(), resp.status)
	}
	return nil
}

// lane returns a node's trace lane index (its position in the fixed node
// set), or -1 for an unknown node.
func (m *Mesh) lane(target *Node) int {
	for i, n := range m.nodes.Nodes() {
		if n == target {
			return i
		}
	}
	return -1
}

// traceHop records one routing hop on the target node's lane and counts it.
func (m *Mesh) traceHop(kind trace.Kind, n *Node, job *meshJob) {
	m.traceSpan(kind, n, job)
	m.hopsC.Inc()
}

// traceSpan records a phase-span edge (begin on placement, end on terminal
// observation) for a job on a node's lane; together with the hop instants,
// WriteChromeJSON renders the job's cross-node path as one timeline, closing
// spans a dead node never finished at the max observed timestamp.
func (m *Mesh) traceSpan(kind trace.Kind, n *Node, job *meshJob) {
	m.tracer.Record(trace.Event{
		Kind:   kind,
		TaskID: job.num,
		Worker: m.lane(n),
		TsNs:   m.traceNow(),
	})
}

// traceNow stamps trace events with nanoseconds since the gateway was built.
func (m *Mesh) traceNow() int64 { return time.Since(m.startTime).Nanoseconds() }

// Stats is the gateway-level status served by GET /v1/stats.
type Stats struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Policy        string       `json:"policy"`
	Nodes         []NodeStatus `json:"nodes"`
	Submitted     int64        `json:"submitted"`
	Rejected      int64        `json:"rejected"`
	Spills        int64        `json:"spills"`
	Failovers     int64        `json:"failovers"`
	Terminal      int64        `json:"terminal"`
}

// StatsSnapshot snapshots the gateway state.
func (m *Mesh) StatsSnapshot() Stats {
	return Stats{
		UptimeSeconds: time.Since(m.startTime).Seconds(),
		Policy:        string(m.policy),
		Nodes:         m.nodes.Statuses(),
		Submitted:     m.submitted.Raw(),
		Rejected:      m.rejected.Raw(),
		Spills:        m.spillsC.Raw(),
		Failovers:     m.failovers.Raw(),
		Terminal:      m.terminalC.Raw(),
	}
}
