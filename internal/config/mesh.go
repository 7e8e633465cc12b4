package config

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Mesh routing policy names. The list is the contract between this package
// (which validates configurations) and internal/mesh (which implements the
// policies); mesh.ParsePolicy accepts exactly these.
const (
	MeshPolicyLeastIdleRate = "least-idle-rate"
	MeshPolicyLeastInflight = "least-inflight"
	MeshPolicyRoundRobin    = "round-robin"
)

// MeshPolicies lists the valid mesh routing policy names.
var MeshPolicies = []string{MeshPolicyLeastIdleRate, MeshPolicyLeastInflight, MeshPolicyRoundRobin}

// Mesh is the serializable configuration of the taskmeshd gateway
// (cmd/taskmeshd), which federates multiple taskgraind nodes. Precedence,
// lowest to highest: defaults, a JSON file (LoadMesh), environment variables
// (ApplyEnv, TASKMESHD_* keys), and command-line flags (Flags).
type Mesh struct {
	Common

	// Nodes lists the seed taskgraind base URLs the registry heartbeats
	// ("http://host:port"; a bare host:port gets the scheme prepended).
	Nodes []string `json:"nodes"`
	// HeartbeatInterval is the per-node health-poll period.
	HeartbeatInterval time.Duration `json:"heartbeat_interval_ns"`
	// DownAfter is the consecutive heartbeat failures before a node is
	// marked down and removed from routing.
	DownAfter int `json:"down_after"`
	// RoutePolicy picks the routing policy: least-idle-rate (Eq. 1 as the
	// load signal), least-inflight, or round-robin.
	RoutePolicy string `json:"route_policy"`
	// MaxSubmitAttempts bounds the per-submission node tries across all
	// spillover passes before the gateway itself sheds with 503.
	MaxSubmitAttempts int `json:"max_submit_attempts"`
	// MaxBackoff caps how long one spillover pass honours a node's
	// Retry-After hint before re-ranking and retrying.
	MaxBackoff time.Duration `json:"max_backoff_ns"`
	// HedgeDelay is how long a status long-poll waits before hedging with a
	// cheap liveness probe of the owning node (0 disables hedging).
	HedgeDelay time.Duration `json:"hedge_delay_ns"`
	// FlowFloor is the inflight-task floor below which a node's idle-rate
	// reads as "empty and available" rather than "overhead-bound" — the
	// mesh edition of the admission controller's shed_min_tasks
	// disambiguation of the U-curve's two walls.
	FlowFloor float64 `json:"flow_floor"`
	// RequestTimeout bounds each forwarded non-long-poll request
	// (submissions, probes, cancels, heartbeats).
	RequestTimeout time.Duration `json:"request_timeout_ns"`
}

// DefaultMesh returns the taskmeshd defaults.
func DefaultMesh() Mesh {
	return Mesh{
		Common:            defaultCommon(":8090"),
		HeartbeatInterval: 250 * time.Millisecond,
		DownAfter:         3,
		RoutePolicy:       MeshPolicyLeastIdleRate,
		MaxSubmitAttempts: 8,
		MaxBackoff:        time.Second,
		HedgeDelay:        2 * time.Second,
		FlowFloor:         1,
		RequestTimeout:    5 * time.Second,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (m *Mesh) Validate() error {
	if err := m.Common.validate(); err != nil {
		return err
	}
	switch {
	case len(m.Nodes) == 0:
		return fmt.Errorf("config: mesh has no seed nodes")
	case m.HeartbeatInterval <= 0:
		return fmt.Errorf("config: heartbeat_interval = %v", m.HeartbeatInterval)
	case m.DownAfter < 1:
		return fmt.Errorf("config: down_after = %d", m.DownAfter)
	case m.MaxSubmitAttempts < 1:
		return fmt.Errorf("config: max_submit_attempts = %d", m.MaxSubmitAttempts)
	case m.MaxBackoff <= 0:
		return fmt.Errorf("config: max_backoff = %v", m.MaxBackoff)
	case m.HedgeDelay < 0:
		return fmt.Errorf("config: hedge_delay = %v", m.HedgeDelay)
	case m.FlowFloor < 0:
		return fmt.Errorf("config: flow_floor = %v", m.FlowFloor)
	case m.RequestTimeout <= 0:
		return fmt.Errorf("config: request_timeout = %v", m.RequestTimeout)
	}
	for _, n := range m.Nodes {
		if strings.TrimSpace(n) == "" {
			return fmt.Errorf("config: empty mesh node entry")
		}
	}
	for _, p := range MeshPolicies {
		if m.RoutePolicy == p {
			return nil
		}
	}
	return fmt.Errorf("config: unknown route_policy %q (want %s)",
		m.RoutePolicy, strings.Join(MeshPolicies, ", "))
}

// ApplyEnv overlays TASKMESHD_* environment variables onto the
// configuration, one per JSON key (see applyEnv); TASKMESHD_NODES is a
// comma-separated URL list. lookup is os.LookupEnv in production; injected
// for tests.
func (m *Mesh) ApplyEnv(lookup func(string) (string, bool)) error {
	return applyEnv("TASKMESHD_", m, lookup)
}

// nodeList adapts the comma-separated -nodes flag to the Nodes slice.
type nodeList struct{ nodes *[]string }

func (n nodeList) String() string {
	if n.nodes == nil {
		return ""
	}
	return strings.Join(*n.nodes, ",")
}

func (n nodeList) Set(v string) error {
	*n.nodes = SplitNodes(v)
	return nil
}

// SplitNodes parses a comma-separated node-URL list, trimming whitespace and
// dropping empty entries.
func SplitNodes(v string) []string {
	var out []string
	for _, part := range strings.Split(v, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Flags registers command-line flags bound to the configuration fields, so
// flag parsing (highest precedence) overwrites file and environment values.
func (m *Mesh) Flags(fs *flag.FlagSet) {
	m.Common.flags(fs)
	fs.Var(nodeList{&m.Nodes}, "nodes", "comma-separated taskgraind base URLs")
	fs.DurationVar(&m.HeartbeatInterval, "heartbeat-interval", m.HeartbeatInterval, "per-node health-poll period")
	fs.IntVar(&m.DownAfter, "down-after", m.DownAfter, "consecutive heartbeat failures before a node is down")
	fs.StringVar(&m.RoutePolicy, "route-policy", m.RoutePolicy,
		"routing policy ("+strings.Join(MeshPolicies, ", ")+")")
	fs.IntVar(&m.MaxSubmitAttempts, "max-submit-attempts", m.MaxSubmitAttempts, "node tries per submission before the gateway sheds")
	fs.DurationVar(&m.MaxBackoff, "max-backoff", m.MaxBackoff, "cap on honouring Retry-After between spillover passes")
	fs.DurationVar(&m.HedgeDelay, "hedge-delay", m.HedgeDelay, "status long-poll hedge delay (0 disables)")
	fs.Float64Var(&m.FlowFloor, "flow-floor", m.FlowFloor, "inflight-task floor below which a node reads as empty")
	fs.DurationVar(&m.RequestTimeout, "request-timeout", m.RequestTimeout, "per forwarded request ceiling")
}

// LoadMesh decodes a mesh configuration from JSON over the defaults,
// rejecting unknown fields.
func LoadMesh(r io.Reader) (Mesh, error) {
	m := DefaultMesh()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("config: %w", err)
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// LoadMeshFile loads a mesh configuration from a JSON file.
func LoadMeshFile(path string) (Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return DefaultMesh(), fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	return LoadMesh(f)
}
