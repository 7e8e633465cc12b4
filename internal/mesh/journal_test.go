package mesh

import (
	"context"
	"net/http"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
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
	if got := m2.wal.Recovered(); got < int64(len(ids)) {
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

// TestMeshJournalPlacementDurableUnderAlways: under always the placements
// one upstream call wins are one durable append, so the client's 202s go out
// only after one fsync covers them all.
func TestMeshJournalPlacementDurableUnderAlways(t *testing.T) {
	node := newFakeNode(t)
	cfg := testMeshConfig(node.ts.URL)
	cfg.JournalDir = t.TempDir()
	cfg.JournalFsync = string(journal.FsyncAlways)
	cfg.JournalFsyncInterval = time.Hour // no flusher commit inside the test
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Stop()
	waitFor(t, 5*time.Second, "node routable", func() bool {
		return len(m.nodes.Routable()) == 1
	})
	before := m.wal.Fsyncs()
	specs := []wire.JobSpec{{Kind: "fibonacci", Size: 10}, {Kind: "fibonacci", Size: 11}, {Kind: "fibonacci", Size: 12}}
	for i, res := range m.admit(context.Background(), specs, trace.SpanContext{}, true) {
		if res.Status != http.StatusAccepted {
			t.Fatalf("item %d: status %d (%v)", i, res.Status, res.Error)
		}
	}
	if got := m.wal.Fsyncs() - before; got != 1 {
		t.Fatalf("3 placements from one upstream call took %d fsyncs, want 1", got)
	}
	if last, durable := m.wal.LastLSN(), m.wal.DurableLSN(); last != 3 || durable != last {
		t.Fatalf("LastLSN %d, DurableLSN %d after the 202s; want 3 placement records, all durable", last, durable)
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

// journalBytes sums the sizes of the files in a journal directory.
func journalBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// TestMeshJournalCompactsCountEvictions is the healthy long-lived gateway:
// every job is polled to terminal, so only count-eviction ever drops one and
// the stale reaper never has anything to reap. The periodic sweep must still
// compact — otherwise the journal grows by two records per job forever — and
// a restart must come back inside the retention bound even when the journal
// holds more terminal jobs than that (a crash before the next sweep).
func TestMeshJournalCompactsCountEvictions(t *testing.T) {
	const retain, inflight = 8, 3
	node := newFakeNode(t)
	cfg := testMeshConfig(node.ts.URL)
	cfg.JournalDir = t.TempDir()
	cfg.JournalFsyncInterval = time.Millisecond
	cfg.JournalSegmentBytes = 1024 // compaction deletes whole segments only

	m1, err := newMesh(cfg, retain)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	waitRoutable(t, m1, "fibonacci", 1)
	submit := func() string {
		t.Helper()
		res := m1.admit(context.Background(), []wire.JobSpec{{Kind: "fibonacci", Size: 10}}, trace.SpanContext{}, false)[0]
		if res.Status != http.StatusAccepted {
			t.Fatalf("submit: status %d (%v)", res.Status, res.Error)
		}
		return res.Job.ID
	}
	// finish polls a job once; the fake node answers every poll "done".
	finish := func(id string) {
		t.Helper()
		j, ok := m1.jobs.get(id)
		if !ok {
			t.Fatalf("job %s not in the store", id)
		}
		if res := m1.relayStatus(j, "", 0); res.Status != http.StatusOK || res.Job.State != wire.JobDone {
			t.Fatalf("poll %s: %+v", id, res)
		}
	}
	terminalJobs := func(m *Mesh) (ids []string) {
		for _, j := range m.jobs.list() {
			if _, _, _, terminal, _, _ := j.snapshot(); terminal {
				ids = append(ids, j.id)
			}
		}
		return ids
	}

	var waiting []string // admitted, never polled: non-terminal throughout
	for i := 0; i < inflight; i++ {
		waiting = append(waiting, submit())
	}
	for i := 0; i < retain+40; i++ {
		finish(submit())
		if got := len(terminalJobs(m1)); got > retain {
			t.Fatalf("%d terminal jobs retained after %d finished, bound %d", got, i+1, retain)
		}
	}
	if err := m1.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	before := journalBytes(t, cfg.JournalDir)
	m1.sweep()
	after := journalBytes(t, cfg.JournalDir)
	if after >= before {
		t.Fatalf("journal is %d bytes after the sweep, %d before: count-evictions did not trigger compaction", after, before)
	}
	if got := m1.staleC.Raw(); got != 0 {
		t.Fatalf("stale reaper evicted %d jobs; the compaction must come from count-eviction alone", got)
	}

	// Past the bound again with no sweep before the crash: the journal now
	// holds the snapshot's retain terminal jobs plus these.
	var last []string
	for i := 0; i < retain+2; i++ {
		id := submit()
		finish(id)
		last = append(last, id)
	}
	if err := m1.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Crash()

	m2, err := newMesh(cfg, retain)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	// Recovery restores in ID order, so the newest retain terminal jobs stay.
	if got, want := terminalJobs(m2), last[2:]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered terminal jobs %v, want the newest %d: %v", got, retain, want)
	}
	for _, id := range waiting {
		j, ok := m2.jobs.get(id)
		if !ok {
			t.Fatalf("non-terminal job %s not recovered", id)
		}
		if n, nodeID, _ := j.placement(); n == nil || nodeID == "" {
			t.Fatalf("non-terminal job %s recovered without its placement", id)
		}
	}
	if !m2.jobs.takeDisplaced() {
		t.Fatal("recovery dropped terminal jobs past the bound but left no mark for the next sweep to compact them away")
	}
}

// TestMeshJournalCompactionKeepsConcurrentPlacements: a compaction snapshot
// covers every record appended before it, so a placement journaled while the
// snapshot was being assembled must be in it — or the job is lost to the
// restarted gateway though its node still runs it.
func TestMeshJournalCompactionKeepsConcurrentPlacements(t *testing.T) {
	node := newFakeNode(t)
	cfg := testMeshConfig(node.ts.URL)
	cfg.JournalDir = t.TempDir()
	cfg.JournalFsyncInterval = time.Millisecond

	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	waitRoutable(t, m1, "fibonacci", 1)

	// A full store makes assembling a snapshot take long enough (milliseconds)
	// that placements are certain to land meanwhile.
	for i := 0; i < retainMeshJobs; i++ {
		j := m1.jobs.add("fibonacci")
		j.observe(wire.JobView{State: wire.JobDone})
		m1.jobs.retire(j)
	}
	// Compactions run back to back while the first half of the submissions
	// land, then stop: the last one overlaps live submitters, and nothing
	// after it re-snapshots a placement it missed.
	const submitters, perSubmitter = 4, 100
	ids := make([][]string, submitters)
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				res := m1.admit(context.Background(), []wire.JobSpec{{Kind: "fibonacci", Size: 10}}, trace.SpanContext{}, false)[0]
				admitted.Add(1)
				if res.Status != http.StatusAccepted {
					t.Errorf("submit: status %d (%v)", res.Status, res.Error)
					return
				}
				ids[s] = append(ids[s], res.Job.ID)
			}
		}(s)
	}
	for admitted.Load() < submitters*perSubmitter/2 {
		m1.journalCompact()
	}
	wg.Wait()
	if err := m1.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	m1.Crash()

	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Stop()
	for _, batch := range ids {
		for _, id := range batch {
			j, ok := m2.jobs.get(id)
			if !ok {
				t.Fatalf("job %s was admitted (202) but is unknown after the restart", id)
			}
			if n, nodeID, _ := j.placement(); n == nil || nodeID == "" {
				t.Fatalf("job %s recovered without its placement", id)
			}
		}
	}
}
