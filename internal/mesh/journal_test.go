package mesh

import (
	"context"
	"net/http"
	"testing"
	"time"

	"taskgrain/internal/journal"
	"taskgrain/internal/trace"
	"taskgrain/internal/wire"
)

// TestMeshJournalGatewayRestart covers the gateway durability path: placement
// epochs journaled before the 202 must survive a gateway crash, so a restarted
// gateway relays polls to the node that still holds each job instead of
// orphaning the in-flight placements — and terminal observations made after
// the restart are themselves durable across a further clean shutdown.
func TestMeshJournalGatewayRestart(t *testing.T) {
	node := newFakeNode(t)
	cfg := testMeshConfig(node.ts.URL)
	cfg.JournalDir = t.TempDir()
	cfg.JournalFsyncInterval = time.Millisecond

	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	waitFor(t, 5*time.Second, "node routable", func() bool {
		return len(m1.nodes.Routable()) == 1
	})
	var ids []string
	for i := 0; i < 3; i++ {
		res := m1.admit(context.Background(), []wire.JobSpec{{Kind: "fibonacci", Size: 10}}, trace.SpanContext{}, false)[0]
		if res.Status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%v)", i, res.Status, res.Error)
		}
		if res.Job.ID == "" {
			t.Fatalf("submit %d: no mesh id in %+v", i, res.Job)
		}
		ids = append(ids, res.Job.ID)
	}
	m1.Crash()

	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.recoveredC.Raw(); got < int64(len(ids)) {
		t.Fatalf("/journal/recovered-jobs = %d, want ≥ %d", got, len(ids))
	}
	m2.Start()
	for _, id := range ids {
		j, ok := m2.jobs.get(id)
		if !ok {
			t.Fatalf("job %s not recovered", id)
		}
		n, nodeID, _ := j.placement()
		if n == nil || nodeID == "" {
			t.Fatalf("job %s recovered without its placement (node=%v nodeID=%q)", id, n, nodeID)
		}
		res := m2.relayStatus(j, "", 0)
		if res.Status != http.StatusOK {
			t.Fatalf("recovered job %s poll: status %d (%v)", id, res.Status, res.Error)
		}
		if res.Job.ID != id {
			t.Fatalf("recovered job poll returned id %v, want mesh id %s", res.Job.ID, id)
		}
		if res.Job.State != wire.JobDone {
			t.Fatalf("recovered job %s state = %v, want done", id, res.Job.State)
		}
	}
	m2.Stop()

	// The clean Stop compacted: the journal on disk carries a snapshot.
	rec, err := journal.Recover(cfg.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil {
		t.Fatal("gateway Stop wrote no compaction snapshot")
	}

	// The terminal observations were journaled too: a third gateway serves
	// the verdicts from its recovered cache even after the node dies.
	node.set(func(f *fakeNode) { f.dead = true })
	m3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Stop()
	for _, id := range ids {
		j, ok := m3.jobs.get(id)
		if !ok {
			t.Fatalf("job %s lost across second restart", id)
		}
		res, served := m3.cachedView(j)
		if !served || res.Status != http.StatusOK {
			t.Fatalf("job %s terminal verdict not recovered (served=%v %+v)", id, served, res)
		}
	}
}

// TestMeshJournalUnknownNodePlacement: a recovered placement naming a node no
// longer in the configuration leaves the job unplaced (503 on poll) rather
// than failing recovery — the failover path, not boot, re-places it.
func TestMeshJournalUnknownNodePlacement(t *testing.T) {
	nodeA := newFakeNode(t)
	cfgA := testMeshConfig(nodeA.ts.URL)
	cfgA.JournalDir = t.TempDir()
	cfgA.JournalFsyncInterval = time.Millisecond

	m1, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	waitFor(t, 5*time.Second, "node routable", func() bool {
		return len(m1.nodes.Routable()) == 1
	})
	res := m1.admit(context.Background(), []wire.JobSpec{{Kind: "fibonacci", Size: 10}}, trace.SpanContext{}, false)[0]
	if res.Status != http.StatusAccepted {
		t.Fatalf("submit: status %d (%v)", res.Status, res.Error)
	}
	id := res.Job.ID
	m1.Crash()

	// Restart over the same journal with a different node set.
	nodeB := newFakeNode(t)
	cfgB := cfgA
	cfgB.Nodes = []string{nodeB.ts.URL}
	m2, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	j, ok := m2.jobs.get(id)
	if !ok {
		t.Fatalf("job %s not recovered", id)
	}
	n, _, _ := j.placement()
	if n != nil {
		t.Fatalf("placement bound to %s, want unplaced (old node is not configured)", n.name)
	}
	if st := m2.relayStatus(j, "", 0).Status; st != http.StatusServiceUnavailable {
		t.Fatalf("unplaced recovered job poll: status %d, want 503", st)
	}
}
