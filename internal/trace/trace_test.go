package trace_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"taskgrain/internal/costmodel"
	"taskgrain/internal/sim"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
	. "taskgrain/internal/trace"
)

func TestRecordAndCap(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: Spawn, TaskID: uint64(i)})
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want cap 3", tr.Len())
	}
	// The tracer keeps the newest events, oldest first.
	ev := tr.Events()
	if len(ev) != 3 || ev[0].TaskID != 7 || ev[1].TaskID != 8 || ev[2].TaskID != 9 {
		t.Fatalf("events = %+v", ev)
	}
}

// TestRingOverwritesOldestFirst: past the cap every Record overwrites exactly
// the oldest retained event and counts it as a drop, and Events always
// returns the retained window in recording order — also when the cap is not
// a divisor of the number of events recorded.
func TestRingOverwritesOldestFirst(t *testing.T) {
	const limit = 4
	tr := New(limit)
	for i := 0; i < 11; i++ {
		tr.Record(Event{Kind: Spawn, TaskID: uint64(i)})
		want := i + 1
		if want > limit {
			want = limit
		}
		ev := tr.Events()
		if len(ev) != want || tr.Len() != want {
			t.Fatalf("after %d records: %d events (Len %d), want %d", i+1, len(ev), tr.Len(), want)
		}
		for k, e := range ev {
			if e.TaskID != uint64(i+1-want+k) {
				t.Fatalf("after %d records: events = %+v, want ids %d..%d in order", i+1, ev, i+1-want, i)
			}
		}
		if got := tr.Drops(); got != int64(i+1-want) {
			t.Fatalf("after %d records: Drops = %d, want %d", i+1, got, i+1-want)
		}
	}
}

// TestOrphanedPhaseEndIgnored is the gateway's case: jobs overlap on one node
// lane, and the ring overwrote task 1's begin while its end survived. The
// orphaned end must not be charged to another task's open begin — every
// export sees only task 2's phase.
func TestOrphanedPhaseEndIgnored(t *testing.T) {
	tr := New(3)
	tr.Record(Event{Kind: PhaseBegin, TaskID: 1, Worker: 0, TsNs: 1000}) // overwritten
	tr.Record(Event{Kind: PhaseBegin, TaskID: 2, Worker: 0, TsNs: 2000})
	tr.Record(Event{Kind: PhaseEnd, TaskID: 1, Worker: 0, TsNs: 3000}) // orphan
	tr.Record(Event{Kind: PhaseEnd, TaskID: 2, Worker: 0, TsNs: 4000})

	var buf strings.Builder
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Name != "task 2" ||
		doc.TraceEvents[0].Ts != 2 || doc.TraceEvents[0].Dur != 2 {
		t.Fatalf("chrome events = %+v, want only task 2 over [2µs,4µs)", doc.TraceEvents)
	}
	stats, _ := tr.Summary()
	if len(stats) != 1 || stats[0].Phases != 1 || stats[0].BusyNs != 2000 {
		t.Fatalf("summary = %+v, want 1 phase of 2000ns", stats)
	}
	// [2000,4000) busy on the one lane: buckets 2 and 3 of 1µs are full.
	tl := tr.Timeline(1000)
	if len(tl) != 5 || tl[1].Busy != 0 || tl[2].Busy != 1 || tl[3].Busy != 1 {
		t.Fatalf("timeline = %+v", tl)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		PhaseBegin: "phase-begin", PhaseEnd: "phase-end", Spawn: "spawn",
		Suspend: "suspend", Resume: "resume", Steal: "steal",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(100000)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Record(Event{Kind: PhaseBegin, Worker: g, TsNs: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 8000 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestChromeJSONPairsPhases(t *testing.T) {
	tr := New(0)
	tr.Record(Event{Kind: Spawn, TaskID: 1, Worker: -1, TsNs: 0})
	tr.Record(Event{Kind: PhaseBegin, TaskID: 1, Worker: 0, TsNs: 1000})
	tr.Record(Event{Kind: PhaseEnd, TaskID: 1, Worker: 0, TsNs: 5000})
	tr.Record(Event{Kind: PhaseEnd, TaskID: 9, Worker: 3, TsNs: 6000}) // unmatched: dropped
	var b strings.Builder
	if err := tr.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %+v", doc.TraceEvents)
	}
	var sawSlice bool
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			sawSlice = true
			if e.Name != "task 1" || e.Ts != 1 || e.Dur != 4 || e.Tid != 0 {
				t.Fatalf("slice = %+v", e)
			}
		}
	}
	if !sawSlice {
		t.Fatal("no complete slice emitted")
	}
}

func TestSummary(t *testing.T) {
	tr := New(0)
	tr.Record(Event{Kind: PhaseBegin, TaskID: 1, Worker: 0, TsNs: 0})
	tr.Record(Event{Kind: PhaseEnd, TaskID: 1, Worker: 0, TsNs: 100})
	tr.Record(Event{Kind: PhaseBegin, TaskID: 2, Worker: 0, TsNs: 150})
	tr.Record(Event{Kind: PhaseEnd, TaskID: 2, Worker: 0, TsNs: 200})
	stats, kinds := tr.Summary()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	ws := stats[0]
	if ws.Phases != 2 || ws.BusyNs != 150 || ws.FirstNs != 0 || ws.LastNs != 200 {
		t.Fatalf("worker stats = %+v", ws)
	}
	if got := ws.Utilization(); got != 0.75 {
		t.Fatalf("utilization = %v", got)
	}
	if kinds[PhaseBegin] != 2 || kinds[PhaseEnd] != 2 {
		t.Fatalf("kinds = %v", kinds)
	}
	if out := tr.RenderSummary(); !strings.Contains(out, "worker 0") {
		t.Fatalf("summary = %q", out)
	}
}

func TestUtilizationEdges(t *testing.T) {
	empty := WorkerStats{}
	if empty.Utilization() != 0 {
		t.Fatal("empty utilization")
	}
	over := WorkerStats{BusyNs: 200, FirstNs: 0, LastNs: 100}
	if over.Utilization() != 1 {
		t.Fatal("utilization must clamp at 1")
	}
}

func TestNativeRuntimeIntegration(t *testing.T) {
	tr := New(0)
	rt := taskrt.New(taskrt.WithWorkers(2), taskrt.WithTracer(tr))
	rt.Start()
	done := make(chan struct{})
	rt.Spawn(func(c *taskrt.Context) {
		r := c.SuspendInto(func(*taskrt.Context) { close(done) })
		r.Resume()
	})
	<-done
	rt.WaitIdle()
	rt.Shutdown()
	_, kinds := tr.Summary()
	if kinds[Spawn] != 1 {
		t.Errorf("spawn events = %d", kinds[Spawn])
	}
	if kinds[PhaseBegin] != 2 || kinds[PhaseEnd] != 2 {
		t.Errorf("phase events = %d/%d, want 2/2 (two phases)", kinds[PhaseBegin], kinds[PhaseEnd])
	}
	if kinds[Suspend] != 1 || kinds[Resume] != 1 {
		t.Errorf("suspend/resume = %d/%d", kinds[Suspend], kinds[Resume])
	}
}

func TestSimIntegration(t *testing.T) {
	tr := New(0)
	wl, err := stencil.NewSimWorkload(stencil.Config{
		TotalPoints: 10000, PointsPerPartition: 1000, TimeSteps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(sim.Config{Profile: costmodel.Haswell(), Cores: 4, Tracer: tr}, wl)
	if err != nil {
		t.Fatal(err)
	}
	stats, kinds := tr.Summary()
	if int64(kinds[PhaseBegin]) != r.Tasks || int64(kinds[PhaseEnd]) != r.Tasks {
		t.Fatalf("phase events %d/%d, want %d", kinds[PhaseBegin], kinds[PhaseEnd], r.Tasks)
	}
	if int64(kinds[Spawn]) != r.Tasks {
		t.Fatalf("spawn events = %d, want %d", kinds[Spawn], r.Tasks)
	}
	var phases int
	var busy int64
	for _, ws := range stats {
		phases += ws.Phases
		busy += ws.BusyNs
	}
	if int64(phases) != r.Tasks {
		t.Fatalf("summary phases = %d", phases)
	}
	if d := float64(busy) - r.ExecTotalNs; d > 1e3 || d < -1e3 {
		t.Fatalf("trace busy %v != sim exec total %v", busy, r.ExecTotalNs)
	}
	var b strings.Builder
	if err := tr.WriteChromeJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"ph":"X"`) {
		t.Fatal("no slices in chrome json")
	}
}

func TestTimeline(t *testing.T) {
	tr := New(0)
	// Worker 0 busy [0,500) and [1000,1500); worker 1 busy [0,2000).
	add := func(k Kind, w int, ts int64) { tr.Record(Event{Kind: k, Worker: w, TsNs: ts}) }
	add(PhaseBegin, 0, 0)
	add(PhaseEnd, 0, 500)
	add(PhaseBegin, 0, 1000)
	add(PhaseEnd, 0, 1500)
	add(PhaseBegin, 1, 0)
	add(PhaseEnd, 1, 2000)
	tl := tr.Timeline(1000)
	if len(tl) != 3 {
		t.Fatalf("buckets = %d (%v)", len(tl), tl)
	}
	// Bucket 0: w0 500 + w1 1000 over 2*1000 = 0.75.
	if tl[0].Busy != 0.75 {
		t.Fatalf("bucket0 = %v", tl[0].Busy)
	}
	// Bucket 1: w0 500 + w1 1000 → 0.75.
	if tl[1].Busy != 0.75 {
		t.Fatalf("bucket1 = %v", tl[1].Busy)
	}
	// Bucket 2: only the zero-length tail at ts 2000 → 0.
	if tl[2].Busy != 0 {
		t.Fatalf("bucket2 = %v", tl[2].Busy)
	}
	if tl[0].StartNs != 0 || tl[2].StartNs != 2000 {
		t.Fatalf("starts = %v", tl)
	}
}

func TestTimelineEmptyAndDefaults(t *testing.T) {
	tr := New(0)
	if tl := tr.Timeline(100); tl != nil {
		t.Fatalf("empty timeline = %v", tl)
	}
	tr.Record(Event{Kind: PhaseBegin, Worker: 0, TsNs: 0})
	tr.Record(Event{Kind: PhaseEnd, Worker: 0, TsNs: 2_500_000})
	tl := tr.Timeline(0) // default 1ms buckets
	if len(tl) != 3 {
		t.Fatalf("default buckets = %d", len(tl))
	}
	if tl[0].Busy != 1 || tl[1].Busy != 1 || tl[2].Busy != 0.5 {
		t.Fatalf("timeline = %v", tl)
	}
}

func TestDropsCountedAndReported(t *testing.T) {
	tr := New(3)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: Spawn, TaskID: uint64(i)})
	}
	if tr.Drops() != 7 {
		t.Fatalf("Drops = %d, want 7", tr.Drops())
	}
	if s := tr.RenderSummary(); !strings.Contains(s, "dropped") || !strings.Contains(s, "7") {
		t.Fatalf("RenderSummary does not report drops:\n%s", s)
	}
	// A tracer under its cap reports no drops.
	if s := New(100).RenderSummary(); strings.Contains(s, "dropped") {
		t.Fatalf("summary of empty tracer mentions drops:\n%s", s)
	}
}

func TestChromeJSONMetadataAndOpenSpans(t *testing.T) {
	tr := New(4)
	tr.Record(Event{Kind: PhaseBegin, TaskID: 1, Worker: 0, TsNs: 1000}) // overwritten at cap
	tr.Record(Event{Kind: PhaseEnd, TaskID: 1, Worker: 0, TsNs: 2000})
	tr.Record(Event{Kind: PhaseBegin, TaskID: 2, Worker: 1, TsNs: 1500}) // never ends
	tr.Record(Event{Kind: Spawn, TaskID: 3, Worker: -1, TsNs: 5000})     // max ts
	tr.Record(Event{Kind: Steal, TaskID: 4, Worker: 0, TsNs: 4000})

	var buf strings.Builder
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData struct {
			RetainedEvents int   `json:"retainedEvents"`
			DroppedEvents  int64 `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.RetainedEvents != 4 || doc.OtherData.DroppedEvents != 1 {
		t.Fatalf("metadata = %+v, want retained 4 dropped 1", doc.OtherData)
	}
	// Task 2's open phase must appear as a complete slice ending at the max
	// observed timestamp (5000ns): ts 1.5µs, dur 3.5µs.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "task 1" {
			t.Fatalf("task 1's end was rendered though its begin was overwritten: %+v", ev)
		}
		if ev.Name == "task 2 (open)" && ev.Ph == "X" {
			found = true
			if ev.Ts != 1.5 || ev.Dur != 3.5 {
				t.Fatalf("open span ts/dur = %v/%v, want 1.5/3.5", ev.Ts, ev.Dur)
			}
		}
	}
	if !found {
		t.Fatalf("open phase not closed in Chrome JSON: %s", buf.String())
	}
}

func TestSummaryClosesOpenPhases(t *testing.T) {
	tr := New(0)
	tr.Record(Event{Kind: PhaseBegin, TaskID: 1, Worker: 0, TsNs: 0})
	tr.Record(Event{Kind: PhaseEnd, TaskID: 1, Worker: 0, TsNs: 100})
	tr.Record(Event{Kind: PhaseBegin, TaskID: 2, Worker: 0, TsNs: 200}) // never ends
	tr.Record(Event{Kind: Spawn, TaskID: 9, Worker: -1, TsNs: 1000})    // max ts

	stats, _ := tr.Summary()
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// 100ns closed phase + (1000-200)ns open phase closed at max ts.
	if stats[0].Phases != 2 || stats[0].BusyNs != 900 {
		t.Fatalf("phases=%d busy=%d, want phases=2 busy=900", stats[0].Phases, stats[0].BusyNs)
	}
	if stats[0].LastNs != 1000 {
		t.Fatalf("LastNs = %d, want 1000 (extended to close the span)", stats[0].LastNs)
	}
}

func TestTimelineClosesOpenPhases(t *testing.T) {
	tr := New(0)
	// One phase open from 0, trace ends (max ts) at 2.5ms via an instant.
	tr.Record(Event{Kind: PhaseBegin, TaskID: 1, Worker: 0, TsNs: 0})
	tr.Record(Event{Kind: Spawn, TaskID: 2, Worker: 0, TsNs: 2_500_000})
	buckets := tr.Timeline(1_000_000)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	// The open span [0, 2.5ms) must fill buckets 0 and 1 fully, half of 2.
	if buckets[0].Busy != 1 || buckets[1].Busy != 1 || buckets[2].Busy != 0.5 {
		t.Fatalf("busy = %v %v %v, want 1 1 0.5", buckets[0].Busy, buckets[1].Busy, buckets[2].Busy)
	}
}
