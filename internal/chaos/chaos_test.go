// The chaos scenario suite: an in-process taskserve/mesh cluster with every
// node fronted by a fault-injecting chaos.Proxy, driven through ~8 canonical
// fault scenarios with cluster-wide invariants checked after each one.
//
// Every scenario is deterministic in its fault pattern: the seed drives all
// injection decisions, so a failing run replays with the printed command
// line, e.g.
//
//	go test -race -run 'TestChaos/kill-node-during-burst' ./internal/chaos -chaos.seed=7
package chaos_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"taskgrain/internal/chaos"
	"taskgrain/internal/config"
	"taskgrain/internal/counters"
	"taskgrain/internal/mesh"
	"taskgrain/internal/taskrt"
	"taskgrain/internal/taskserve"
	"taskgrain/internal/trace"
)

// chaosSeed replays one specific seed instead of the default matrix; go test
// passes unrecognized -chaos.seed through to the test binary.
var chaosSeed = flag.Int64("chaos.seed", 0, "replay chaos scenarios under this single seed (0 = default seed set)")

// clusterNode is one in-process taskserve node with its chaos proxy front.
type clusterNode struct {
	srv   *taskserve.Server
	proxy *chaos.Proxy
	front *httptest.Server
}

// cluster is the scenario fixture: n proxied taskserve nodes behind one mesh
// gateway.
type cluster struct {
	nodes []clusterNode
	mesh  *mesh.Mesh
	gw    *httptest.Server
}

// clusterOpts parameterizes startCluster per scenario.
type clusterOpts struct {
	nodes     int
	proxyCfg  func(i int) chaos.ProxyConfig   // nil = transparent proxies
	serverCfg func(i int, cfg *config.Server) // nil = test defaults
	meshCfg   func(cfg *config.Mesh)          // nil = fast test defaults
}

// startCluster builds the cluster. Faults configured via proxyCfg are live
// from the first heartbeat; scenarios that need a clean start pass zeroed
// probabilities and flip deterministic switches (SetDown, Burst5xx) mid-run.
func startCluster(opts clusterOpts) (*cluster, error) {
	c := &cluster{}
	urls := make([]string, 0, opts.nodes)
	for i := 0; i < opts.nodes; i++ {
		cfg := config.DefaultServer()
		cfg.Workers = 2
		cfg.TelemetryInterval = 5 * time.Millisecond
		cfg.ShedMinTasks = 1e12 // admission stays out of routing scenarios
		if opts.serverCfg != nil {
			opts.serverCfg(i, &cfg)
		}
		srv, err := taskserve.New(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		srv.Start()
		var pcfg chaos.ProxyConfig
		if opts.proxyCfg != nil {
			pcfg = opts.proxyCfg(i)
		}
		proxy := chaos.NewProxy(srv.Handler(), pcfg)
		front := httptest.NewServer(proxy)
		c.nodes = append(c.nodes, clusterNode{srv: srv, proxy: proxy, front: front})
		urls = append(urls, front.URL)
	}

	mcfg := config.DefaultMesh()
	mcfg.Addr = "127.0.0.1:0"
	mcfg.Nodes = urls
	mcfg.HeartbeatInterval = 10 * time.Millisecond
	mcfg.DownAfter = 2
	mcfg.MaxSubmitAttempts = 4
	mcfg.MaxBackoff = 30 * time.Millisecond
	mcfg.HedgeDelay = 50 * time.Millisecond
	mcfg.RequestTimeout = 2 * time.Second
	if opts.meshCfg != nil {
		opts.meshCfg(&mcfg)
	}
	m, err := mesh.New(mcfg)
	if err != nil {
		c.close()
		return nil, fmt.Errorf("mesh: %w", err)
	}
	m.Start()
	c.mesh = m
	c.gw = httptest.NewServer(m.Handler())
	return c, nil
}

func (c *cluster) close() {
	if c.gw != nil {
		c.gw.Close()
	}
	if c.mesh != nil {
		c.mesh.Stop()
	}
	for _, n := range c.nodes {
		n.front.Close()
		n.srv.Close()
	}
}

// submitResult is one client-side submission outcome.
type submitResult struct {
	status int
	id     string
	err    error // transport-level failure reaching the gateway
}

// submit POSTs one job spec through the gateway.
func submit(gw, spec string) submitResult {
	resp, err := http.Post(gw+"/v1/jobs", "application/json", bytes.NewReader([]byte(spec)))
	if err != nil {
		return submitResult{err: err}
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return submitResult{status: resp.StatusCode, id: v.ID}
}

// pollTerminal long-polls one job through the gateway until it reaches a
// terminal state. Garbled bodies and transient non-200 relays are retried —
// the invariant under fault injection is *eventual* terminal observation.
func pollTerminal(gw, id string, budget time.Duration) (string, error) {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := http.Get(gw + "/v1/jobs/" + id + "?wait=true&timeout=2s")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var v struct {
			State string `json:"state"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		switch v.State {
		case "done", "failed", "cancelled":
			return v.State, nil
		}
	}
	return "", fmt.Errorf("job %s never reached a terminal state within %v", id, budget)
}

// submitAndTrack submits n jobs concurrently, recording accepted ones on the
// ledger, then polls every accepted job to a terminal state. midBurst, if
// non-nil, fires once after roughly half the submissions have completed.
// Returns accepted and rejected counts.
func submitAndTrack(gw string, n int, spec func(i int) string, l *chaos.Ledger, v *chaos.Verifier, midBurst func()) (accepted, rejected int) {
	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	var once sync.Once
	const lanes = 4
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < n; i += lanes {
				res := submit(gw, spec(i))
				mu.Lock()
				switch {
				case res.err != nil || res.status != http.StatusAccepted:
					rejected++
				default:
					accepted++
					l.Admitted(res.id)
					ids = append(ids, res.id)
				}
				half := accepted+rejected >= n/2
				mu.Unlock()
				if half && midBurst != nil {
					once.Do(midBurst)
				}
			}
		}(lane)
	}
	wg.Wait()

	wg = sync.WaitGroup{}
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			state, err := pollTerminal(gw, id, 60*time.Second)
			if err != nil {
				v.Failf("poll: %v", err)
				return
			}
			l.Terminal(id, state)
		}(id)
	}
	wg.Wait()
	return accepted, rejected
}

// checkMeshInvariants runs the standard post-scenario audit on the gateway:
// ledger integrity, monotonic counters, terminal-count accounting, and trace
// span balance (each failover legitimately leaves one span open — the dead
// placement's lane never closes).
func checkMeshInvariants(v *chaos.Verifier, c *cluster, l *chaos.Ledger, prev counters.Snapshot, accepted int) {
	l.Verify(v, "ledger")
	snap := c.mesh.Counters().Snapshot()
	v.CheckMonotonic("mesh", prev, snap, chaos.MonotonicNames(c.mesh.Counters()))
	if got := snap.Get("/mesh/jobs/terminal"); got != float64(accepted) {
		v.Failf("mesh: terminal counter = %v, want %d (one per accepted job — more means a duplicated terminal, fewer a lost one)", got, accepted)
	}
	if got := snap.Get("/mesh/jobs/submitted"); got != float64(accepted) {
		v.Failf("mesh: submitted counter = %v, want %d accepted", got, accepted)
	}
	v.CheckSpanBalance("mesh", c.mesh.Tracer().Events(), int(snap.Get("/mesh/jobs/failovers")))
}

const smallStencil = `{"kind":"stencil1d","size":80000,"steps":4}`

// scenarioKillNodeDuringBurst: three nodes, round-robin spread, node 0's
// network face dies mid-burst with queued and running jobs on board. The
// PR 3/PR 4 acceptance invariant under a harsher kill: zero lost, zero
// duplicated jobs.
func scenarioKillNodeDuringBurst() chaos.Scenario {
	return chaos.Scenario{
		Name: "kill-node-during-burst",
		Run: func(seed int64, v *chaos.Verifier) error {
			c, err := startCluster(clusterOpts{
				nodes:    3,
				proxyCfg: func(i int) chaos.ProxyConfig { return chaos.ProxyConfig{Seed: seed} },
				meshCfg:  func(cfg *config.Mesh) { cfg.RoutePolicy = config.MeshPolicyRoundRobin },
			})
			if err != nil {
				return err
			}
			defer c.close()
			prev := c.mesh.Counters().Snapshot()
			l := chaos.NewLedger()
			accepted, _ := submitAndTrack(c.gw.URL, 18, func(int) string { return smallStencil }, l, v,
				func() { c.nodes[0].proxy.SetDown(true) })
			if accepted == 0 {
				return fmt.Errorf("no job was accepted")
			}
			checkMeshInvariants(v, c, l, prev, accepted)
			if got := c.mesh.Counters().Snapshot().Get("/mesh/jobs/failovers"); got < 1 {
				v.Failf("mesh: node death mid-burst recorded no failovers")
			}
			return nil
		},
	}
}

// scenarioFlapUnderLoad: one node square-waves between alive and refusing
// while jobs stream through — the registry keeps admitting and expelling it
// from the routing set mid-flight.
func scenarioFlapUnderLoad() chaos.Scenario {
	return chaos.Scenario{
		Name: "flap-under-load",
		Run: func(seed int64, v *chaos.Verifier) error {
			c, err := startCluster(clusterOpts{
				nodes: 2,
				proxyCfg: func(i int) chaos.ProxyConfig {
					if i == 1 {
						return chaos.ProxyConfig{Seed: seed, Flap: &chaos.Flap{Up: 150 * time.Millisecond, Down: 100 * time.Millisecond}}
					}
					return chaos.ProxyConfig{Seed: seed}
				},
			})
			if err != nil {
				return err
			}
			defer c.close()
			prev := c.mesh.Counters().Snapshot()
			l := chaos.NewLedger()
			accepted, _ := submitAndTrack(c.gw.URL, 12, func(int) string { return smallStencil }, l, v, nil)
			if accepted == 0 {
				return fmt.Errorf("no job was accepted")
			}
			checkMeshInvariants(v, c, l, prev, accepted)
			return nil
		},
	}
}

// scenarioArmedSchedulerTaskbench exercises the -chaos-seed config path: a
// single node built with cfg.ChaosSeed armed runs a taskbench DAG while the
// scheduler eats wake delays, stalls, and steal-order perturbation. The
// node's telemetry ring must stay monotonic and the work must conserve.
func scenarioArmedSchedulerTaskbench() chaos.Scenario {
	return chaos.Scenario{
		Name: "armed-scheduler-taskbench",
		Run: func(seed int64, v *chaos.Verifier) error {
			c, err := startCluster(clusterOpts{
				nodes: 1,
				serverCfg: func(i int, cfg *config.Server) {
					cfg.ChaosSeed = seed
				},
			})
			if err != nil {
				return err
			}
			defer c.close()
			node := c.nodes[0]
			l := chaos.NewLedger()
			res := submit(c.gw.URL, `{"kind":"taskbench","size":16,"steps":8,"pattern":"stencil1d","grain":2,"seed":1}`)
			if res.err != nil || res.status != http.StatusAccepted {
				return fmt.Errorf("taskbench submit: status %d err %v", res.status, res.err)
			}
			l.Admitted(res.id)
			state, err := pollTerminal(c.gw.URL, res.id, 60*time.Second)
			if err != nil {
				return err
			}
			l.Terminal(res.id, state)
			if state != "done" {
				v.Failf("node: taskbench under armed scheduler ended %q, want done", state)
			}
			l.Verify(v, "ledger")

			// The sampled series of the runtime's cumulative counters must
			// never run backwards, whatever interleavings the chaos forced.
			node.srv.Telemetry().SampleNow()
			ring := node.srv.Telemetry().Ring()
			v.CheckSeriesMonotonic("node", ring, counters.CountCumulative)
			v.CheckSeriesMonotonic("node", ring, "/server/jobs/submitted")

			snap := node.srv.Runtime().Counters().Snapshot()
			v.CheckZero("node", "runtime inflight after terminal job", node.srv.Runtime().Inflight())
			serverSnap := node.srv.Telemetry().SampleNow().Values
			v.CheckConservation("node", serverSnap, "/server/jobs/submitted", 0,
				"/server/jobs/completed", "/server/jobs/failed", "/server/jobs/cancelled")
			if snap.Get(counters.CountCumulative) <= 0 {
				v.Failf("node: runtime executed no tasks under armed scheduler")
			}
			return nil
		},
	}
}

// scenarioResetStorm: node 1's data path cuts 30%% of connections
// mid-request (heartbeats are exempt, so the node stays routable — the
// nastiest combination: alive to the registry, unreliable to the proxy).
func scenarioResetStorm() chaos.Scenario {
	return chaos.Scenario{
		Name: "reset-storm",
		Run: func(seed int64, v *chaos.Verifier) error {
			jobsPath := func(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/v1/jobs") }
			c, err := startCluster(clusterOpts{
				nodes: 2,
				proxyCfg: func(i int) chaos.ProxyConfig {
					if i == 1 {
						return chaos.ProxyConfig{Seed: seed, ResetProb: 0.3, Match: jobsPath}
					}
					return chaos.ProxyConfig{Seed: seed}
				},
			})
			if err != nil {
				return err
			}
			defer c.close()
			prev := c.mesh.Counters().Snapshot()
			l := chaos.NewLedger()
			accepted, _ := submitAndTrack(c.gw.URL, 12, func(int) string { return smallStencil }, l, v, nil)
			if accepted == 0 {
				return fmt.Errorf("no job was accepted")
			}
			checkMeshInvariants(v, c, l, prev, accepted)
			return nil
		},
	}
}

// scenarioTruncatedStatusPolls: every status response from both nodes has a
// 40%% chance of arriving as a 200 with a truncated JSON body. The mesh's
// decode layer — not its transport — must absorb the damage; no truncated
// read may be mistaken for a terminal observation.
func scenarioTruncatedStatusPolls() chaos.Scenario {
	return chaos.Scenario{
		Name: "truncated-status-polls",
		Run: func(seed int64, v *chaos.Verifier) error {
			statusGet := func(r *http.Request) bool {
				return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/")
			}
			c, err := startCluster(clusterOpts{
				nodes: 2,
				proxyCfg: func(i int) chaos.ProxyConfig {
					return chaos.ProxyConfig{Seed: seed + int64(i), TruncateProb: 0.4, Match: statusGet}
				},
			})
			if err != nil {
				return err
			}
			defer c.close()
			prev := c.mesh.Counters().Snapshot()
			l := chaos.NewLedger()
			accepted, _ := submitAndTrack(c.gw.URL, 10, func(int) string { return smallStencil }, l, v, nil)
			if accepted == 0 {
				return fmt.Errorf("no job was accepted")
			}
			checkMeshInvariants(v, c, l, prev, accepted)
			truncations := c.nodes[0].proxy.Injected()["truncations"] + c.nodes[1].proxy.Injected()["truncations"]
			if truncations == 0 {
				v.Failf("chaos: truncation armed at 0.4 over status polls but never fired")
			}
			return nil
		},
	}
}

// scenarioLatencySpikes: node 0 answers status polls 100–300ms late — past
// the 50ms hedge delay but inside the request timeout. Hedge probes fire;
// none of them may turn a slow-but-alive node into a spurious failover that
// double-runs a job.
func scenarioLatencySpikes() chaos.Scenario {
	return chaos.Scenario{
		Name: "latency-spike-long-poll",
		Run: func(seed int64, v *chaos.Verifier) error {
			statusGet := func(r *http.Request) bool {
				return r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/")
			}
			c, err := startCluster(clusterOpts{
				nodes: 2,
				proxyCfg: func(i int) chaos.ProxyConfig {
					if i == 0 {
						return chaos.ProxyConfig{
							Seed: seed, Latency: 100 * time.Millisecond,
							LatencyJitter: 200 * time.Millisecond, LatencyProb: 0.5, Match: statusGet,
						}
					}
					return chaos.ProxyConfig{Seed: seed}
				},
			})
			if err != nil {
				return err
			}
			defer c.close()
			prev := c.mesh.Counters().Snapshot()
			l := chaos.NewLedger()
			accepted, _ := submitAndTrack(c.gw.URL, 10, func(int) string { return smallStencil }, l, v, nil)
			if accepted == 0 {
				return fmt.Errorf("no job was accepted")
			}
			checkMeshInvariants(v, c, l, prev, accepted)
			return nil
		},
	}
}

// scenarioSubmitStormAccounting: the submission path of node 0 randomly
// resets or answers 500 while a burst lands. Whatever mix of relayed errors
// and retried placements results, the gateway's books must balance exactly:
// every submission is accepted once or rejected once, and the submitted/
// rejected counters partition the burst.
func scenarioSubmitStormAccounting() chaos.Scenario {
	return chaos.Scenario{
		Name: "submit-storm-accounting",
		Run: func(seed int64, v *chaos.Verifier) error {
			submitPost := func(r *http.Request) bool {
				return r.Method == http.MethodPost && r.URL.Path == "/v1/jobs"
			}
			c, err := startCluster(clusterOpts{
				nodes: 2,
				proxyCfg: func(i int) chaos.ProxyConfig {
					if i == 0 {
						return chaos.ProxyConfig{Seed: seed, ResetProb: 0.25, Err5xxProb: 0.25, Match: submitPost}
					}
					return chaos.ProxyConfig{Seed: seed}
				},
			})
			if err != nil {
				return err
			}
			defer c.close()
			prev := c.mesh.Counters().Snapshot()
			l := chaos.NewLedger()
			const burst = 16
			accepted, rejected := submitAndTrack(c.gw.URL, burst, func(i int) string {
				return fmt.Sprintf(`{"kind":"fibonacci","size":12,"grain":12,"idempotency_key":"storm-%d-%d"}`, seed, i)
			}, l, v, nil)
			if accepted+rejected != burst {
				v.Failf("client: %d accepted + %d rejected != %d submissions", accepted, rejected, burst)
			}
			if accepted == 0 {
				return fmt.Errorf("no job was accepted")
			}
			checkMeshInvariants(v, c, l, prev, accepted)
			snap := c.mesh.Counters().Snapshot()
			if got := snap.Get("/mesh/jobs/rejected"); got != float64(rejected) {
				v.Failf("mesh: rejected counter = %v, want %d (client-observed rejections)", got, rejected)
			}
			return nil
		},
	}
}

// scenarioSchedulerSoak: pure taskrt — every runtime injection class armed
// at elevated probability over repeated SpawnBatch rounds with nested
// spawns. Exactly-once execution, a drained backlog, balanced trace spans,
// and monotonic counters must survive any interleaving the chaos finds.
func scenarioSchedulerSoak() chaos.Scenario {
	return chaos.Scenario{
		Name: "scheduler-soak",
		Run: func(seed int64, v *chaos.Verifier) error {
			h := chaos.NewSchedHooks(chaos.SchedConfig{
				Seed:             seed,
				WakeDelayProb:    0.3,
				WakeDelayMax:     100 * time.Microsecond,
				WakeShuffleProb:  0.5,
				StallProb:        0.05,
				StallMax:         200 * time.Microsecond,
				StallWorker:      -1,
				StealShuffleProb: 0.5,
			})
			tracer := trace.New(1 << 16)
			rt := taskrt.New(
				taskrt.WithWorkers(4),
				taskrt.WithNUMADomains(2),
				taskrt.WithChaosHooks(h),
				taskrt.WithTracer(tracer),
				taskrt.WithParkTimeout(100*time.Microsecond),
			)
			rt.Start()
			defer rt.Shutdown()

			prev := rt.Counters().Snapshot()
			var executed, expected int64
			const rounds, batch, nested = 3, 128, 2
			for round := 0; round < rounds; round++ {
				fns := make([]func(*taskrt.Context), batch)
				for i := range fns {
					fns[i] = func(ctx *taskrt.Context) {
						for k := 0; k < nested; k++ {
							ctx.Spawn(func(*taskrt.Context) {})
						}
					}
				}
				rt.SpawnBatch(fns)
				rt.WaitIdle()
				expected += batch * (1 + nested)
			}
			executed = rt.TasksExecuted()

			v.CheckZero("taskrt", "inflight after WaitIdle", rt.Inflight())
			if executed != expected {
				v.Failf("taskrt: executed %d tasks, want %d (lost or duplicated work)", executed, expected)
			}
			v.CheckMonotonic("taskrt", prev, rt.Counters().Snapshot(), chaos.MonotonicNames(rt.Counters()))
			v.CheckSpanBalance("taskrt", tracer.Events(), 0)
			if h.InjectedTotal() == 0 {
				v.Failf("chaos: scheduler hooks armed but injected nothing")
			}
			return nil
		},
	}
}

// scenarioCrashRestartJournal: a journaled node dies SIGKILL-style mid-burst
// (HTTP front torn down, journal frozen at its durable state, no drain) and a
// fresh process restarts over the same journal directory. Every job the
// client saw a 202 for must reach a terminal state exactly once across the
// two process lifetimes — the PR 7 ledger invariant stretched over a crash.
func scenarioCrashRestartJournal() chaos.Scenario {
	return chaos.Scenario{
		Name: "crash-restart-journal",
		Run: func(seed int64, v *chaos.Verifier) error {
			dir, err := os.MkdirTemp("", "chaos-journal-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			newServer := func() (*taskserve.Server, *httptest.Server, error) {
				cfg := config.DefaultServer()
				cfg.Workers = 2
				cfg.TelemetryInterval = 5 * time.Millisecond
				cfg.ShedMinTasks = 1e12
				cfg.MaxConcurrentJobs = 2
				cfg.JournalDir = dir
				cfg.JournalFsyncInterval = time.Millisecond
				srv, err := taskserve.New(cfg)
				if err != nil {
					return nil, nil, err
				}
				srv.Start()
				return srv, httptest.NewServer(srv.Handler()), nil
			}
			srvA, frontA, err := newServer()
			if err != nil {
				return err
			}

			spec := func(i int) string {
				return fmt.Sprintf(`{"kind":"fibonacci","size":14,"idempotency_key":"crash-%d-%d"}`, seed, i)
			}
			l := chaos.NewLedger()
			var mu sync.Mutex
			idBySubmit := map[int]string{}
			accepted := 0
			const burst = 24
			var wg sync.WaitGroup
			var crashOnce sync.Once
			crash := func() {
				frontA.Close() // waits out in-flight requests, like the OS reaping sockets
				srvA.Crash()
			}
			const lanes = 4
			for lane := 0; lane < lanes; lane++ {
				wg.Add(1)
				go func(lane int) {
					defer wg.Done()
					for i := lane; i < burst; i += lanes {
						res := submit(frontA.URL, spec(i))
						mu.Lock()
						if res.err == nil && res.status == http.StatusAccepted && res.id != "" {
							accepted++
							l.Admitted(res.id)
							idBySubmit[i] = res.id
						}
						half := accepted >= burst/2
						mu.Unlock()
						if half {
							crashOnce.Do(crash)
						}
					}
				}(lane)
			}
			wg.Wait()
			crashOnce.Do(crash)
			if accepted == 0 {
				return fmt.Errorf("no job was accepted before the crash")
			}

			srvB, frontB, err := newServer()
			if err != nil {
				return err
			}
			defer func() {
				frontB.Close()
				srvB.Close()
			}()
			recovered := srvB.Telemetry().SampleNow().Values.Get("/journal/recovered-jobs")
			if recovered < float64(accepted) {
				v.Failf("node: /journal/recovered-jobs = %v after restart, want ≥ %d (every 202 was journaled first)", recovered, accepted)
			}
			// An idempotent resubmission against the restarted process must
			// resolve to the recovered job, not admit a second run.
			for i, id := range idBySubmit {
				res := submit(frontB.URL, spec(i))
				if res.err != nil || res.id != id {
					v.Failf("node: idempotent resubmit of job %d returned id %q err %v, want recovered %s", i, res.id, res.err, id)
				}
				break
			}
			for _, id := range idBySubmit {
				state, err := pollTerminal(frontB.URL, id, 60*time.Second)
				if err != nil {
					v.Failf("poll after restart: %v", err)
					continue
				}
				l.Terminal(id, state)
				if state != "done" {
					v.Failf("node: recovered job %s ended %q, want done under the requeue policy", id, state)
				}
			}
			l.Verify(v, "ledger")
			return nil
		},
	}
}

// scenarioBatchSubmitSpread: batches stream through the gateway's vectored
// submission path while one node's network face dies mid-run — per-item
// spillover must land every admitted item on a live node exactly once, and
// the per-item mesh accounting (submitted and terminal counters, ledger
// integrity) must balance exactly as on the single-job path.
func scenarioBatchSubmitSpread() chaos.Scenario {
	return chaos.Scenario{
		Name: "batch-submit-spread",
		Run: func(seed int64, v *chaos.Verifier) error {
			c, err := startCluster(clusterOpts{
				nodes:    3,
				proxyCfg: func(i int) chaos.ProxyConfig { return chaos.ProxyConfig{Seed: seed} },
				meshCfg:  func(cfg *config.Mesh) { cfg.RoutePolicy = config.MeshPolicyRoundRobin },
			})
			if err != nil {
				return err
			}
			defer c.close()
			prev := c.mesh.Counters().Snapshot()
			l := chaos.NewLedger()

			const batches, perBatch = 6, 4
			accepted := 0
			var ids []string
			for b := 0; b < batches; b++ {
				if b == batches/2 {
					c.nodes[0].proxy.SetDown(true)
				}
				specs := make([]string, perBatch)
				for k := range specs {
					specs[k] = smallStencil
				}
				body := fmt.Sprintf(`{"jobs":[%s]}`, strings.Join(specs, ","))
				resp, err := http.Post(c.gw.URL+"/v1/jobs/batch", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					v.Failf("batch %d: %v", b, err)
					continue
				}
				var out struct {
					Results []struct {
						Status int `json:"status"`
						Job    *struct {
							ID string `json:"id"`
						} `json:"job"`
					} `json:"results"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if decErr != nil {
					v.Failf("batch %d: undecodable reply: %v", b, decErr)
					continue
				}
				if len(out.Results) != perBatch {
					v.Failf("batch %d: %d results for %d items (per-item stitching broke)", b, len(out.Results), perBatch)
					continue
				}
				for _, res := range out.Results {
					if res.Status == http.StatusAccepted && res.Job != nil && res.Job.ID != "" {
						accepted++
						l.Admitted(res.Job.ID)
						ids = append(ids, res.Job.ID)
					}
				}
			}
			if accepted == 0 {
				return fmt.Errorf("no batch item was accepted")
			}

			var wg sync.WaitGroup
			for _, id := range ids {
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					state, err := pollTerminal(c.gw.URL, id, 60*time.Second)
					if err != nil {
						v.Failf("poll: %v", err)
						return
					}
					l.Terminal(id, state)
				}(id)
			}
			wg.Wait()

			checkMeshInvariants(v, c, l, prev, accepted)
			snap := c.mesh.Counters().Snapshot()
			if got := snap.Get("/mesh/batch/forwarded"); got < float64(batches) {
				v.Failf("mesh: /mesh/batch/forwarded = %v, want ≥ %d (one per per-node sub-batch)", got, batches)
			}
			return nil
		},
	}
}

// scenarios is the canonical suite; CI's chaos-smoke job sweeps it across a
// seed matrix and the README's chaos table documents each row.
func scenarios() []chaos.Scenario {
	return []chaos.Scenario{
		scenarioKillNodeDuringBurst(),
		scenarioFlapUnderLoad(),
		scenarioArmedSchedulerTaskbench(),
		scenarioResetStorm(),
		scenarioTruncatedStatusPolls(),
		scenarioLatencySpikes(),
		scenarioSubmitStormAccounting(),
		scenarioSchedulerSoak(),
		scenarioCrashRestartJournal(),
		scenarioBatchSubmitSpread(),
	}
}

func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos scenarios are not short-mode tests")
	}
	for _, s := range scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if err := s.RunSeeds(chaos.Seeds(*chaosSeed), t.Logf); err != nil {
				t.Fatal(err)
			}
		})
	}
}
