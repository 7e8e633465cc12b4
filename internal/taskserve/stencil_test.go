package taskserve

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"taskgrain/internal/microbench"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
)

// refChecksum is the ring-order sum of the sequential oracle's final state,
// the figure a stencil job's checksum must reproduce.
func refChecksum(t testing.TB, n, steps int) float64 {
	t.Helper()
	ref, err := stencil.Reference(stencil.Config{TotalPoints: n, PointsPerPartition: n, TimeSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range ref {
		sum += v
	}
	return sum
}

// runToEnd submits spec and waits for its terminal view.
func runToEnd(t *testing.T, s *Server, spec JobSpec) JobView {
	t.Helper()
	job, se := s.Submit(spec)
	if se != nil {
		t.Fatalf("submit %+v: %v", spec, se)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s (%+v) did not finish", job.ID(), spec)
	}
	return job.View()
}

// checkStencilJob asserts a finished stencil job's checksum against the
// oracle (bit-equal on amd64; 1e-12 relative elsewhere, where the compiler
// may fuse multiply-adds differently) and its task count.
func checkStencilJob(t *testing.T, spec JobSpec, v JobView) {
	t.Helper()
	if v.State != JobDone || v.Result == nil {
		t.Fatalf("%+v: state %s (%s)", spec, v.State, v.Error)
	}
	want := refChecksum(t, spec.Size, spec.Steps)
	got := v.Result.Checksum
	if runtime.GOARCH == "amd64" && got != want || math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Errorf("%+v: checksum %v, reference %v", spec, got, want)
	}
	parts := (spec.Size + spec.Grain - 1) / spec.Grain
	if wantTasks := int64(parts * (spec.Steps + 1)); v.Result.Tasks != wantTasks {
		t.Errorf("%+v: tasks %d, want parts×(steps+1) = %d", spec, v.Result.Tasks, wantTasks)
	}
}

// The ping-pong runner must compute what the oracle computes on every
// partition shape. The table runs large → small → large on one server, so a
// pooled ring pair is reused at a smaller n and again at the larger one: a
// point the init wave failed to overwrite would show in the checksum. A job
// cancelled mid-run leaves its half-stepped rings in the pool, and the next
// job must still be exact. Last, the table runs again as one burst on two
// runners, so jobs share the pool and the workers concurrently.
func TestStencilJobMatchesReference(t *testing.T) {
	s, _ := newTestServer(t, testConfig())

	cases := []JobSpec{
		{Size: 20_011, Grain: 256, Steps: 5},  // n % grain ≠ 0: short last partition
		{Size: 1_000, Grain: 1_000, Steps: 3}, // one partition: both neighbours are itself
		{Size: 37, Grain: 1, Steps: 4},        // one-point partitions
		{Size: 500, Grain: 7, Steps: 1},       // a single step
		{Size: 2, Grain: 1, Steps: 3},         // two partitions: left and right are the same one
		{Size: 20_011, Grain: 300, Steps: 6},  // back to large on recycled rings
	}
	for _, spec := range cases {
		spec.Kind = KindStencil
		checkStencilJob(t, spec, runToEnd(t, s, spec))
	}

	long, se := s.Submit(JobSpec{Kind: KindStencil, Size: 1_000_000, Grain: 1_000, Steps: 10_000})
	if se != nil {
		t.Fatal(se)
	}
	for long.State() == JobQueued {
		runtime.Gosched()
	}
	s.Cancel(long.ID())
	<-long.Done()
	if st := long.State(); st != JobCancelled {
		t.Fatalf("long job state %s, want cancelled", st)
	}
	for _, spec := range []JobSpec{{Size: 999_999, Grain: 4_096, Steps: 2}, {Size: 30_000, Grain: 250, Steps: 5}} {
		spec.Kind = KindStencil
		checkStencilJob(t, spec, runToEnd(t, s, spec))
	}

	jobs := make([]*Job, len(cases))
	for i, spec := range cases {
		spec.Kind = KindStencil
		var se *shedError
		if jobs[i], se = s.Submit(spec); se != nil {
			t.Fatalf("burst submit %+v: %v", spec, se)
		}
	}
	for i, job := range jobs {
		<-job.Done()
		spec := cases[i]
		spec.Kind = KindStencil
		checkStencilJob(t, spec, job.View())
	}
}

// A warm stencil job allocates its closures, one wave of task records and
// queue nodes, but no grid points: with per-task partitions back, a
// 200k-point job would allocate ≈ 9.6 MB, and with a fresh Task slab per
// wave instead of Group.Run's reused one ≈ 740 KB; both fail this. Today
// it is ≈ 270 KB: one 800-task record slab (≈ 90 KB), a 16 B queue node
// per task and staged→pending conversion, and ≈ 26 KB of closures. The
// median over jobs is asserted because a pool miss (a ring pair Put from
// one P's private slot is invisible to another P's Get) costs one job a
// fresh 3.2 MB pair.
func TestStencilJobAllocBytes(t *testing.T) {
	if median := warmJobAllocBytes(t, JobSpec{Kind: KindStencil, Size: 200_000, Grain: 250, Steps: 5}); median >= 512<<10 {
		t.Fatalf("warm stencil job allocated %d B (median), want < 512 KiB", median)
	}
}

// warmJobAllocBytes runs spec through Submit on a one-runner server, three
// times to warm its pools and then eleven times measured, and returns the
// median bytes allocated per job. It skips the test under the race
// detector.
func warmJobAllocBytes(t *testing.T, spec JobSpec) uint64 {
	t.Helper()
	if microbench.RaceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts")
	}
	cfg := testConfig()
	cfg.MaxConcurrentJobs = 1
	s, _ := newTestServer(t, cfg)
	for i := 0; i < 3; i++ {
		runToEnd(t, s, spec)
	}
	deltas := make([]uint64, 11)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for i := range deltas {
		prev := ms.TotalAlloc
		if v := runToEnd(t, s, spec); v.State != JobDone {
			t.Fatalf("state %s (%s)", v.State, v.Error)
		}
		runtime.ReadMemStats(&ms)
		deltas[i] = ms.TotalAlloc - prev
	}
	slices.Sort(deltas)
	median := deltas[len(deltas)/2]
	t.Logf("bytes allocated per warm %s job: median %d, all %v", spec.Kind, median, deltas)
	return median
}

// A job above maxPooledRingPoints allocates its own rings and must not hand
// them to the pool, where they would pin 16 B per point until two GCs pass.
func TestStencilRingPoolCeiling(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // nothing leaves the pool but Get
	for ringPool.Get() != nil {
	}
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()

	n := maxPooledRingPoints + 1
	spec := JobSpec{Kind: KindStencil, Size: n, Steps: 1}
	if _, err := runStencilJob(rt, spec, n/4, func() bool { return false }); err != nil {
		t.Fatal(err)
	}
	for {
		buf, _ := ringPool.Get().(*[]float64)
		if buf == nil {
			break
		}
		if cap(*buf) > 2*maxPooledRingPoints {
			t.Fatalf("pool holds a %d-point ring pair, above the %d-point ceiling", cap(*buf), 2*maxPooledRingPoints)
		}
	}
}

// BenchmarkStencilJob is the stencil-finegrain job shape (200k points,
// grain 250, 5 steps) on the runner alone; allocs/op counts the runner's
// closures and the runtime's per-task records.
func BenchmarkStencilJob(b *testing.B) {
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	spec := JobSpec{Kind: KindStencil, Size: 200_000, Steps: 5}
	noAbort := func() bool { return false }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := runStencilJob(rt, spec, 250, noAbort); err != nil {
			b.Fatal(err)
		}
	}
}
