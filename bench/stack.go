package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/counters"
	"taskgrain/internal/mesh"
	"taskgrain/internal/taskserve"
)

// stack is one workload's serving stack, hosted in this process behind
// loopback listeners: the nodes, and for the mesh workload a gateway in
// front of them. Every layer is reached only through its public surface.
type stack struct {
	wl      *workload
	nodes   []*taskserve.Server
	nodeTS  []*httptest.Server
	gateway *mesh.Mesh
	gwTS    *httptest.Server
	baseURL string // where the clients send
	jdir    string // this stack's journal root ("" when nothing is journaled)
}

// newStack builds and starts the workload's stack. journalRoot is the
// directory under which a fresh per-stack journal directory is made; rec,
// when non-nil, wraps every handler in the span-recording middleware.
func newStack(wl *workload, journalRoot string, rec *recorder) (_ *stack, err error) {
	st := &stack{wl: wl}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if wl.journalFsync != "" {
		if err := os.MkdirAll(journalRoot, 0o755); err != nil {
			return nil, err
		}
		st.jdir, err = os.MkdirTemp(journalRoot, wl.name+"-")
		if err != nil {
			return nil, err
		}
	}

	nNodes, workers := 1, nodeWorkers
	if wl.meshNodes > 0 {
		nNodes, workers = wl.meshNodes, 1
	}
	for i := 0; i < nNodes; i++ {
		ts := httptest.NewUnstartedServer(nil)
		st.nodeTS = append(st.nodeTS, ts)
		cfg := config.DefaultServer()
		cfg.Addr = ts.Listener.Addr().String()
		cfg.Workers = workers
		cfg.MaxQueuedJobs = maxQueuedJobs
		cfg.ShedMinTasks = noIdleShedding
		if wl.journalFsync != "" {
			cfg.JournalDir = filepath.Join(st.jdir, fmt.Sprintf("node%d", i))
			cfg.JournalFsync = wl.journalFsync
			if wl.meshNodes > 0 {
				cfg.JournalFsync = "interval"
			}
		}
		srv, err := taskserve.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		st.nodes = append(st.nodes, srv)
		srv.Start()
		ts.Config.Handler = rec.wrap(srv.Handler(), hop(i))
		ts.Start()
	}
	st.baseURL = st.nodeTS[0].URL

	if wl.meshNodes > 0 {
		ts := httptest.NewUnstartedServer(nil)
		st.gwTS = ts
		cfg := config.DefaultMesh()
		cfg.Addr = ts.Listener.Addr().String()
		for _, n := range st.nodeTS {
			cfg.Nodes = append(cfg.Nodes, n.URL)
		}
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.JournalDir = filepath.Join(st.jdir, "gateway")
		cfg.JournalFsync = "interval"
		gw, err := mesh.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("gateway: %w", err)
		}
		st.gateway = gw
		gw.Start() // sweeps every node once before returning
		if got := len(gw.NodeRegistry().Routable()); got != nNodes {
			return nil, fmt.Errorf("gateway: %d of %d nodes routable after the first sweep", got, nNodes)
		}
		ts.Config.Handler = rec.wrap(gw.Handler(), hopGateway)
		ts.Start()
		st.baseURL = ts.URL
	}
	return st, nil
}

// close stops the stack front to back and removes its journal directory.
func (st *stack) close() {
	if st.gwTS != nil {
		st.gwTS.Close()
	}
	if st.gateway != nil {
		st.gateway.Stop()
	}
	for _, ts := range st.nodeTS {
		ts.Close()
	}
	for _, srv := range st.nodes {
		_ = srv.Close() // drain error is only a context expiry; none is set
	}
	if st.jdir != "" {
		_ = os.RemoveAll(st.jdir) // scratch data; a leftover is harmless
	}
}

// nodeCounters sums the node registries' snapshots (two nodes under the
// mesh workload).
func (st *stack) nodeCounters() counters.Snapshot {
	sum := counters.Snapshot{}
	for _, srv := range st.nodes {
		for k, v := range srv.Runtime().Counters().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

// gatewayCounters snapshots the gateway registry (empty without a gateway).
func (st *stack) gatewayCounters() counters.Snapshot {
	if st.gateway == nil {
		return counters.Snapshot{}
	}
	return st.gateway.Counters().Snapshot()
}

// journalBytes is the total size of the stack's journal directories.
func (st *stack) journalBytes() int64 {
	if st.jdir == "" {
		return 0
	}
	var total int64
	_ = filepath.Walk(st.jdir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil // a segment deleted mid-walk by compaction is not an error
	})
	return total
}
