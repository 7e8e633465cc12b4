package mesh

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/counters"
	"taskgrain/internal/loop"
	"taskgrain/internal/telemetry"
)

// NodeState is one node's health as seen by the registry.
type NodeState string

// Node health states. Only healthy nodes are routing-eligible: draining
// nodes are still answering status polls for their admitted jobs but refuse
// new work, and down nodes have failed DownAfter consecutive heartbeats (or
// a forwarded request hit a transport error, which fast-paths the verdict).
const (
	NodeUnknown  NodeState = "unknown"
	NodeHealthy  NodeState = "healthy"
	NodeDraining NodeState = "draining"
	NodeDown     NodeState = "down"
)

// stateOrd renders a state as a number for the /mesh/node{...}/state
// counter: 0 healthy, 1 draining, 2 down, 3 unknown.
func stateOrd(s NodeState) float64 {
	switch s {
	case NodeHealthy:
		return 0
	case NodeDraining:
		return 1
	case NodeDown:
		return 2
	default:
		return 3
	}
}

// Node is one taskgraind backend tracked by the registry: its address, the
// latest heartbeat-observed load signals, and the routing counters the
// gateway's introspect surface exposes per node.
type Node struct {
	base string // normalized base URL ("http://host:port")
	name string // instance name for counters ("host:port")

	mu       sync.Mutex
	state    NodeState
	idleRate float64 // /server/idle-rate: interval Eq. 1 reading
	inflight float64 // /server/tasks/inflight: runtime task backlog
	queued   float64 // /server/jobs/queued
	running  float64 // /server/jobs/running
	alert    bool    // /telemetry/watchdog/active: node's own idle watchdog firing
	fails    int     // consecutive heartbeat failures
	lastSeen time.Time
	snap     counters.Snapshot // full last-heartbeat counter snapshot
	snapAt   time.Time         // when snap was taken (gateway clock)

	// Routing outcomes, registered in the gateway's counter registry as
	// /mesh/node{<name>}/... instances.
	routed    *counters.Cumulative // jobs this node admitted
	spills    *counters.Cumulative // submissions that bounced off (429/503/error)
	failovers *counters.Cumulative // jobs resubmitted elsewhere after death
}

// Base returns the node's base URL.
func (n *Node) Base() string { return n.base }

// Name returns the node's display name (host:port).
func (n *Node) Name() string { return n.name }

// State returns the node's current health state.
func (n *Node) State() NodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// load returns the latest heartbeat-observed load signals.
func (n *Node) load() (idleRate, inflight, queued, running float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.idleRate, n.inflight, n.queued, n.running
}

// alerted reports whether the node's own idle watchdog was firing at the
// last heartbeat — the node itself judged its idle-rate pathological, a
// stronger signal than the gateway's remote reading.
func (n *Node) alerted() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alert
}

// markUnreachable records a transport-level failure observed by the proxy
// (connection refused, reset): the node leaves the routing set immediately
// instead of waiting out DownAfter heartbeats. The heartbeat loop revives it
// if it comes back.
func (n *Node) markUnreachable(downAfter int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails = downAfter
	n.state = NodeDown
}

// observe applies one successful heartbeat reading. snap is the node's full
// counter snapshot; the routing signals are plucked out, and the whole map
// is retained for the gateway's /mesh/metrics aggregation.
func (n *Node) observe(draining bool, snap map[string]float64) {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails = 0
	n.lastSeen = now
	if draining || snap["/server/draining"] > 0 {
		n.state = NodeDraining
	} else {
		n.state = NodeHealthy
	}
	n.idleRate = snap["/server/idle-rate"]
	n.inflight = snap["/server/tasks/inflight"]
	n.queued = snap["/server/jobs/queued"]
	n.running = snap["/server/jobs/running"]
	n.alert = snap[telemetry.WatchdogActive] > 0
	n.snap = counters.Snapshot(snap)
	n.snapAt = now
}

// Snapshot returns the node's last full heartbeat counter snapshot and when
// it was taken. The map is replaced wholesale on each heartbeat and never
// mutated afterwards, so callers may read it without copying. Empty until
// the first successful heartbeat.
func (n *Node) Snapshot() (counters.Snapshot, time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.snap, n.snapAt
}

// observeFailure applies one failed heartbeat.
func (n *Node) observeFailure(downAfter int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails++
	if n.fails >= downAfter {
		n.state = NodeDown
	}
}

// NodeStatus is a node's JSON representation, served by GET /v1/nodes.
type NodeStatus struct {
	Name          string    `json:"name"`
	Base          string    `json:"base"`
	State         NodeState `json:"state"`
	IdleRate      float64   `json:"idle_rate"`
	InflightTasks float64   `json:"inflight_tasks"`
	QueuedJobs    float64   `json:"queued_jobs"`
	RunningJobs   float64   `json:"running_jobs"`
	RoutedJobs    int64     `json:"routed_jobs"`
	Spills        int64     `json:"spills"`
	Failovers     int64     `json:"failovers"`
	LastSeen      time.Time `json:"last_seen,omitempty"`
}

// Status snapshots the node.
func (n *Node) Status() NodeStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	return NodeStatus{
		Name:          n.name,
		Base:          n.base,
		State:         n.state,
		IdleRate:      n.idleRate,
		InflightTasks: n.inflight,
		QueuedJobs:    n.queued,
		RunningJobs:   n.running,
		RoutedJobs:    n.routed.Raw(),
		Spills:        n.spills.Raw(),
		Failovers:     n.failovers.Raw(),
		LastSeen:      n.lastSeen,
	}
}

// Registry tracks the health and load of every mesh node by heartbeating
// each node's introspect surface: GET /healthz for liveness and drain state,
// GET /debug/counters for the full counter snapshot — the /server routing
// signals (idle-rate Eq. 1, task backlog, job occupancy) plus everything
// /mesh/metrics aggregates cluster-wide.
type Registry struct {
	client    *http.Client
	interval  time.Duration
	downAfter int
	timeout   time.Duration
	nodes     []*Node

	// onJoin, when set, fires after a heartbeat moves a node from down or
	// unknown to healthy — the moment a restarted (or newly reachable) node
	// rejoins the routing set. The gateway hangs its grain-hint push here.
	onJoin func(*Node)

	// One heartbeat loop per node, so a node that hangs its GETs delays
	// only its own verdicts; all of them count into one meter.
	startOnce sync.Once
	meter     loop.Meter
	loops     []*loop.Loop
}

// normalizeBase canonicalizes a node address: scheme added if missing,
// trailing slash dropped.
func normalizeBase(addr string) string {
	b := strings.TrimRight(strings.TrimSpace(addr), "/")
	if !strings.Contains(b, "://") {
		b = "http://" + b
	}
	return b
}

// newRegistry builds the node set from the configuration and registers the
// per-node routing counters and the /loops{heartbeat}/ pair in reg.
func newRegistry(cfg config.Mesh, client *http.Client, reg *counters.Registry) (*Registry, error) {
	r := &Registry{
		client:    client,
		interval:  cfg.HeartbeatInterval,
		downAfter: cfg.DownAfter,
		timeout:   cfg.RequestTimeout,
		meter:     loop.NewMeter("heartbeat"),
	}
	r.meter.Register(reg)
	seen := make(map[string]bool)
	for _, addr := range cfg.Nodes {
		base := normalizeBase(addr)
		if seen[base] {
			return nil, fmt.Errorf("mesh: duplicate node %s", base)
		}
		seen[base] = true
		name := strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://")
		n := &Node{
			base:      base,
			name:      name,
			state:     NodeUnknown,
			routed:    counters.NewCumulative(nodeCounter(name, "routed-jobs")),
			spills:    counters.NewCumulative(nodeCounter(name, "spills")),
			failovers: counters.NewCumulative(nodeCounter(name, "failovers")),
		}
		reg.MustRegister(n.routed)
		reg.MustRegister(n.spills)
		reg.MustRegister(n.failovers)
		reg.MustRegister(counters.NewDerived(nodeCounter(name, "idle-rate"), func() float64 {
			ir, _, _, _ := n.load()
			return ir
		}))
		reg.MustRegister(counters.NewDerived(nodeCounter(name, "state"), func() float64 {
			return stateOrd(n.State())
		}))
		r.nodes = append(r.nodes, n)
	}
	return r, nil
}

// nodeCounter names one per-node counter instance, following the HPX
// instance convention the introspect surface already renders
// ("/mesh/node{127.0.0.1:8081}/routed-jobs").
func nodeCounter(name, leaf string) string {
	return fmt.Sprintf("/mesh/node{%s}/%s", name, leaf)
}

// OnJoin registers the join hook. Must be called before Start; the hook runs
// synchronously on the joining node's heartbeat goroutine.
func (r *Registry) OnJoin(fn func(*Node)) { r.onJoin = fn }

// Nodes returns the full node set (fixed at construction).
func (r *Registry) Nodes() []*Node { return r.nodes }

// Routable returns the nodes currently eligible for new work.
func (r *Registry) Routable() []*Node {
	out := make([]*Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n.State() == NodeHealthy {
			out = append(out, n)
		}
	}
	return out
}

// Statuses snapshots every node.
func (r *Registry) Statuses() []NodeStatus {
	out := make([]NodeStatus, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, n.Status())
	}
	return out
}

// Start performs one synchronous sweep (so the gateway can route immediately
// after construction) and launches the per-node heartbeat loops, once.
func (r *Registry) Start() {
	r.startOnce.Do(func() {
		r.Sweep()
		for _, n := range r.nodes {
			r.loops = append(r.loops, r.meter.Every(r.interval, func() { r.heartbeat(n) }))
		}
	})
}

// Stop terminates the heartbeat loops and waits for them to exit; a registry
// stopped before Start never starts.
func (r *Registry) Stop() {
	r.startOnce.Do(func() {}) // orders this read of r.loops after Start's writes
	for _, l := range r.loops {
		l.Stop()
	}
}

// Sweep heartbeats every node once, concurrently, returning when all
// verdicts are in. Exposed for tests and the initial Start probe.
func (r *Registry) Sweep() {
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.heartbeat(n)
		}()
	}
	wg.Wait()
}

// heartbeat polls one node: /healthz for liveness + drain state, then the
// /server counter namespace for load signals. A down/unknown → healthy
// transition fires the registry's join hook.
func (r *Registry) heartbeat(n *Node) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()

	old := n.State()
	draining, err := r.health(ctx, n)
	if err != nil {
		n.observeFailure(r.downAfter)
		return
	}
	snap, err := r.nodeCounters(ctx, n)
	if err != nil {
		n.observeFailure(r.downAfter)
		return
	}
	n.observe(draining, snap)
	if r.onJoin != nil && (old == NodeDown || old == NodeUnknown) && n.State() == NodeHealthy {
		r.onJoin(n)
	}
}

// health GETs /healthz and reports the drain state. A legacy plain-text "ok"
// body counts as healthy so older nodes stay routable.
func (r *Registry) health(ctx context.Context, n *Node) (draining bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("mesh: %s /healthz: %d", n.name, resp.StatusCode)
	}
	var v struct {
		Status string `json:"status"`
	}
	if json.Unmarshal(raw, &v) == nil && v.Status != "" {
		return v.Status == "draining", nil
	}
	if strings.TrimSpace(string(raw)) == "ok" {
		return false, nil
	}
	return false, fmt.Errorf("mesh: %s /healthz: unrecognized body %q", n.name, raw)
}

// nodeCounters GETs the node's full counter snapshot. The registry used to
// fetch only the /server prefix; the whole registry rides the same poll so
// the gateway can aggregate scheduler counters cluster-wide without a
// second request per heartbeat.
func (r *Registry) nodeCounters(ctx context.Context, n *Node) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/debug/counters", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("mesh: %s /debug/counters: %d", n.name, resp.StatusCode)
	}
	var snap map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mesh: %s /debug/counters: %w", n.name, err)
	}
	return snap, nil
}
