package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"taskgrain/internal/config"
	"taskgrain/internal/counters"
	"taskgrain/internal/future"
	"taskgrain/internal/journal"
	"taskgrain/internal/queue"
	"taskgrain/internal/stats"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
	"taskgrain/internal/taskserve"
)

// The ladder times each layer alone, by direct calls to its exported
// functions with fixed iteration counts, one goroutine unless the callee
// owns workers. Each rung is the median of several repeats. Rungs are
// diagnostics: they say which layer's fixed cost moved when a stage metric
// or cpu_ms_per_job did, and they are not gated.

// rung runs fn reps times and returns the median of its results.
func rung(reps int, fn func() float64) float64 {
	vs := make([]float64, reps)
	for i := range vs {
		vs[i] = fn()
	}
	return stats.Percentile(vs, 50)
}

// perOp times n calls of op and returns nanoseconds per call.
func perOp(n int, op func()) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(t)) / float64(n)
}

// ladder adds every rung to m. Journal rungs write under journalRoot.
func ladder(m map[string]metric, journalRoot string, smoke bool) error {
	scale := func(n int) int {
		if smoke {
			return max(n/200, 1)
		}
		return n
	}
	reps := 5
	if smoke {
		reps = 1
	}

	// queue: one push and one pop of the scheduler's lock-free queue.
	q := queue.NewMS[int]()
	m["queue.push_pop_ns"] = metric{rung(reps, func() float64 {
		return perOp(scale(200_000), func() { q.Push(1); q.Pop() })
	}), "ns"}
	batch := make([]int, batchSize)
	m["queue.pushbatch64_ns_per_item"] = metric{rung(reps, func() float64 {
		return perOp(scale(4_000), func() {
			q.PushBatch(batch)
			for range batch {
				q.Pop()
			}
		}) / batchSize
	}), "ns"}

	// taskrt: spawn-to-completion cost of an empty task on two workers,
	// one at a time and through SpawnBatch.
	const emptyTasks = 100_000
	rt := taskrt.New(taskrt.WithWorkers(nodeWorkers))
	rt.Start()
	empty := func(*taskrt.Context) {}
	m["taskrt.spawn_run_ns_per_task"] = metric{rung(reps, func() float64 {
		n := scale(emptyTasks)
		t := time.Now()
		for i := 0; i < n; i++ {
			rt.Spawn(empty)
		}
		rt.WaitIdle()
		return float64(time.Since(t)) / float64(n)
	}), "ns"}
	fns := make([]func(*taskrt.Context), 1000)
	for i := range fns {
		fns[i] = empty
	}
	m["taskrt.spawnbatch_run_ns_per_task"] = metric{rung(reps, func() float64 {
		n := scale(emptyTasks) / len(fns)
		t := time.Now()
		for i := 0; i <= n; i++ {
			rt.SpawnBatch(fns)
		}
		rt.WaitIdle()
		return float64(time.Since(t)) / float64((n+1)*len(fns))
	}), "ns"}
	m["future.async_wait_ns"] = metric{rung(reps, func() float64 {
		return perOp(scale(20_000), func() { future.Async(rt, func() int { return 1 }).Wait() })
	}), "ns"}

	// stencil: the stencil-finegrain job's computation without a server
	// around it (subtract from taskserve.run_us for the runner's overhead),
	// the same at a coarse grain, and Eq. 5's wait time per task: task
	// duration on two workers minus task duration on one, fine grain.
	fine := stencil.Config{TotalPoints: 200_000, PointsPerPartition: stencilGrain, TimeSteps: stencilSteps}
	coarse := fine
	coarse.PointsPerPartition = 25_000
	stencilReps := scale(10)
	direct := func(rt *taskrt.Runtime, cfg stencil.Config) (ms, execUSPerTask float64, err error) {
		reg := rt.Counters()
		var msv []float64
		before := reg.Snapshot()
		for i := 0; i < stencilReps; i++ {
			t := time.Now()
			if _, err := stencil.Run(rt, cfg); err != nil {
				return 0, 0, err
			}
			msv = append(msv, float64(time.Since(t))/float64(time.Millisecond))
		}
		rt.WaitIdle()
		d := reg.Snapshot().Sub(before)
		return stats.Percentile(msv, 50), ratio(d[counters.TimeExecTotal], d[counters.CountCumulative]) / 1e3, nil
	}
	fineMS, td2, err := direct(rt, fine)
	if err != nil {
		return err
	}
	coarseMS, _, err := direct(rt, coarse)
	if err != nil {
		return err
	}
	rt.Shutdown()
	rt1 := taskrt.New(taskrt.WithWorkers(1))
	rt1.Start()
	_, td1, err := direct(rt1, fine)
	rt1.Shutdown()
	if err != nil {
		return err
	}
	m["stencil.run_direct_fine_ms"] = metric{fineMS, "ms"}
	m["stencil.run_direct_coarse_ms"] = metric{coarseMS, "ms"}
	m["taskrt.wait_us_per_task"] = metric{td2 - td1, "us"}

	if err := journalRungs(m, journalRoot, scale, reps); err != nil {
		return err
	}
	return serverRungs(m, scale, reps)
}

// journalRungs times one 256-byte Append under each fsync policy and one
// record of a 64-record AppendBatch under the two policies that flush.
func journalRungs(m map[string]metric, root string, scale func(int) int, reps int) error {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload := bytes.Repeat([]byte{'x'}, 256)
	payloads := make([][]byte, batchSize)
	for i := range payloads {
		payloads[i] = payload
	}
	for _, r := range []struct {
		name   string
		policy journal.FsyncPolicy
		batch  bool
		n      int
	}{
		{"journal.append_always_us", journal.FsyncAlways, false, 200},
		{"journal.append_interval_us", journal.FsyncInterval, false, 2000},
		{"journal.append_none_us", journal.FsyncNone, false, 2000},
		{"journal.appendbatch64_always_us_per_rec", journal.FsyncAlways, true, 50},
		{"journal.appendbatch64_interval_us_per_rec", journal.FsyncInterval, true, 100},
	} {
		j, err := journal.Open(filepath.Join(dir, r.name), journal.Options{Fsync: r.policy})
		if err != nil {
			return err
		}
		var opErr error
		ns := rung(reps, func() float64 {
			if r.batch {
				return perOp(scale(r.n), func() {
					if _, err := j.AppendBatch(payloads); err != nil {
						opErr = err
					}
				}) / batchSize
			}
			return perOp(scale(r.n), func() {
				if _, err := j.Append(payload); err != nil {
					opErr = err
				}
			})
		})
		if err := j.Close(); err != nil && opErr == nil {
			opErr = err
		}
		if opErr != nil {
			return fmt.Errorf("%s: %w", r.name, opErr)
		}
		m[r.name] = metric{ns / 1e3, "us"}
	}
	return nil
}

// serverRungs times the submit handlers in-process (ServeHTTP into a
// recorder, journal off — the rung between the journal and TCP) and the
// price of observability: one telemetry sample, one /metrics render, one
// counter snapshot.
func serverRungs(m map[string]metric, scale func(int) int, reps int) error {
	cfg := config.DefaultServer()
	cfg.Workers = nodeWorkers
	cfg.MaxQueuedJobs = maxQueuedJobs
	cfg.ShedMinTasks = noIdleShedding
	srv, err := taskserve.New(cfg)
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Close()
	h := srv.Handler()

	gen := newJobGen(workloads[0], 0, "ladder", 0) // tiny fibonacci jobs
	var failure error
	// submit serves one POST built from n generated jobs, timed, then waits
	// (untimed) for the jobs it admitted so the next call meets an empty
	// queue.
	submit := func(n int) float64 {
		path, body, _ := gen.request(n, nil, nil)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		w := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t)
		ids := jobIDs(w.Body.Bytes())
		if w.Code != http.StatusAccepted || len(ids) != n {
			failure = fmt.Errorf("in-process POST %s: status %d, %d of %d jobs admitted", path, w.Code, len(ids), n)
			return 0
		}
		for _, id := range ids {
			if job, ok := srv.Job(id); ok {
				<-job.Done()
			}
		}
		return float64(d)
	}
	m["taskserve.handler_submit_inproc_us"] = metric{rung(reps, func() float64 {
		n := scale(400)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += submit(1)
		}
		return sum / float64(n)
	}) / 1e3, "us"}
	m["taskserve.handler_batch64_inproc_us_per_job"] = metric{rung(reps, func() float64 {
		n := scale(20)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += submit(batchSize)
		}
		return sum / float64(n*batchSize)
	}) / 1e3, "us"}
	if failure != nil {
		return failure
	}

	sampler := srv.Telemetry()
	m["telemetry.sample_now_us"] = metric{rung(reps, func() float64 {
		return perOp(scale(200), func() { sampler.SampleNow() })
	}) / 1e3, "us"}
	m["telemetry.metrics_render_us"] = metric{rung(reps, func() float64 {
		return perOp(scale(100), func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
		})
	}) / 1e3, "us"}
	reg := srv.Runtime().Counters()
	m["counters.snapshot_us"] = metric{rung(reps, func() float64 {
		return perOp(scale(400), func() { reg.Snapshot() })
	}) / 1e3, "us"}
	return nil
}
