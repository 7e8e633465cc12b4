package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"taskgrain/internal/counters"
	"taskgrain/internal/stats"
)

// benchProcs pins GOMAXPROCS: the workloads are sized for two cores (see
// workload.go), and before Go 1.25 the runtime ignores a container's CPU
// quota, so leaving it to the host would change what is measured.
const benchProcs = 2

// Phases of one run.
const (
	setupRepeats = 31
	sliceLen     = time.Second
	warmMin      = 3 * time.Second
	warmMax      = 12 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the result line of one run: the last line of standard
// output, as the benchmark contract fixes it.
type runOutput struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig selects one run.
type runConfig struct {
	wl          *workload
	seed        int64
	window      time.Duration
	trace       bool
	smoke       bool   // one setup, no warm-up floor, tiny ladder: exercises every path, times nothing
	journalRoot string // journals live in fresh directories under it
	resultsDir  string // the traced run writes trace-<workload>.json here ("" = nowhere)
	logw        io.Writer
}

func (c *runConfig) logf(format string, args ...any) {
	if c.logw != nil {
		fmt.Fprintf(c.logw, format+"\n", args...)
	}
}

// runOne executes one workload once: repeated set-up, warm-up, then either
// the untraced measured window (end-to-end metrics) or, for a traced run,
// the window split between untraced quarters (counter deltas) and traced
// quarters (the stage chain), and the ladder (per-layer metrics).
func runOne(cfg runConfig) (runOutput, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	// The servers log through the standard logger; the watchdog alone
	// prints a starvation ALERT on every tiny-job run.
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)

	out := runOutput{Metrics: map[string]metric{}}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	httpc := newHTTPClient()
	defer httpc.CloseIdleConnections()

	// Set-up, several times over: build the stack, take one client turn
	// through it (the first job done), tear it down. The last stack stays.
	repeats := setupRepeats
	if cfg.smoke {
		repeats = 1
	}
	var st *stack
	var setups []float64
	var total phaseResult // tallies against the stack that stays, for the ledger
	earlier := 0          // jobs attempted against the stacks torn down
	for i := 0; i < repeats; i++ {
		if st != nil {
			st.close()
			httpc.CloseIdleConnections()
			earlier += total.attempted
			total = phaseResult{}
		}
		t := time.Now()
		var err error
		if st, err = newStack(cfg.wl, cfg.journalRoot, rec); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		first := (&phase{st: st, httpc: httpc, seed: cfg.seed, name: fmt.Sprintf("setup%d", i),
			until: func(_ time.Duration, done int64) bool { return done > 0 }}).run()
		setups = append(setups, time.Since(t).Seconds())
		total.add(first)
		if first.failed > 0 {
			st.close()
			return out, fmt.Errorf("set-up: first job failed: %s", first.firstErr)
		}
	}
	defer st.close()
	setupS := stats.Percentile(setups, 50)

	warmFloor, warmJobs := warmMin, int64(cfg.wl.warmJobs)
	if cfg.smoke {
		warmFloor, warmJobs = cfg.window, 1
	}
	warm := (&phase{st: st, httpc: httpc, seed: cfg.seed, name: "warm",
		until: func(el time.Duration, done int64) bool {
			return (el >= warmFloor && done >= warmJobs) || el >= warmMax
		}}).run()
	total.add(warm)
	cfg.logf("# %s seed %d: set-up %.4f s (median of %d), warm-up %d jobs in %.1f s",
		cfg.wl.name, cfg.seed, setupS, repeats, len(warm.records), warm.elapsed.Seconds())

	if !cfg.trace {
		w := measureWindow(st, httpc, cfg.seed, "run", cfg.window, nil)
		total.add(w.res)
		var minSlice int
		out.Metrics, minSlice = endToEnd(w, setupS)
		cfg.logf("# measured %d jobs in %.1f s; each of %d slices holds at least %d latency samples",
			len(w.res.records), w.res.elapsed.Seconds(), len(w.marks)-1, minSlice)
	} else {
		// Untraced and traced quarters alternate P T T P, so that a drift
		// over the run (heap growth, journal segments filling) falls on
		// both sides alike and the overhead figure compares like with like.
		quarter := cfg.window / 4
		var plain, traced window
		for i, on := range []bool{false, true, true, false} {
			rec.on.Store(on)
			name := fmt.Sprintf("q%d", i)
			if on {
				traced.merge(measureWindow(st, httpc, cfg.seed, name, quarter, rec))
			} else {
				plain.merge(measureWindow(st, httpc, cfg.seed, name, quarter, nil))
			}
		}
		rec.on.Store(false)
		total.add(plain.res)
		total.add(traced.res)

		layer := counterMetrics(plain)
		sum, err := summarize(traced.res.traces)
		if err != nil {
			return out, err
		}
		stageMetrics(layer, sum, plain, traced)
		if cfg.resultsDir != "" {
			if err := writeTraceFile(cfg.resultsDir, cfg.wl.name, cfg.seed, traced.res.traces, sum); err != nil {
				return out, fmt.Errorf("trace file: %w", err)
			}
		}
		if err := ladder(layer, cfg.journalRoot, cfg.smoke); err != nil {
			return out, fmt.Errorf("ladder: %w", err)
		}
		layer["client.failed_frac"] = metric{float64(total.failed) / float64(max(total.attempted, 1)), "frac"}
		out.Metrics = layer
	}

	out.Attempted, out.Failed = earlier+total.attempted, total.failed
	if err := checkLedger(st, total); err != nil {
		return out, err
	}
	out.Correct = total.failed == 0
	if total.failed > 0 {
		cfg.logf("# %d of %d jobs failed; first: %s", total.failed, total.attempted, total.firstErr)
	}
	return out, nil
}

// window is one measured stretch of load with the process and counter
// state read at both ends.
type window struct {
	res   phaseResult
	marks []sliceMark // slice boundaries, the first at 0

	cpuMS        float64 // user+sys CPU this process spent in the window
	nodes, gw    counters.Snapshot
	journalBytes int64
	mallocs      uint64
	allocBytes   uint64
	gcPauseNS    uint64
}

// sliceMark is one slice boundary: seconds since the window opened and the
// CPU time the process had used by then.
type sliceMark struct{ at, cpuMS float64 }

// merge folds a later window of the same kind into w.
func (w *window) merge(o window) {
	w.res.add(o.res)
	w.res.elapsed += o.res.elapsed
	w.res.records = append(w.res.records, o.res.records...)
	w.res.traces = append(w.res.traces, o.res.traces...)
	w.cpuMS += o.cpuMS
	w.journalBytes += o.journalBytes
	w.mallocs += o.mallocs
	w.allocBytes += o.allocBytes
	w.gcPauseNS += o.gcPauseNS
	if w.nodes == nil {
		w.nodes, w.gw = counters.Snapshot{}, counters.Snapshot{}
	}
	for k, v := range o.nodes {
		w.nodes[k] += v
	}
	for k, v := range o.gw {
		w.gw[k] += v
	}
}

// measureWindow runs one phase of the given length and brackets it with
// rusage, counter, journal-size and allocator readings.
func measureWindow(st *stack, httpc *http.Client, seed int64, name string, length time.Duration, rec *recorder) window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	nodes0, gw0 := st.nodeCounters(), st.gatewayCounters()
	bytes0 := st.journalBytes()
	cpu0 := cpuTime()

	// A ticker marks the slice boundaries with the process CPU time, so
	// that CPU per job can be taken slice by slice like everything else.
	start := time.Now()
	marks := []sliceMark{{0, float64(cpu0) / float64(time.Millisecond)}}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(min(sliceLen, length))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				marks = append(marks, sliceMark{time.Since(start).Seconds(), float64(cpuTime()) / float64(time.Millisecond)})
			case <-stop:
				return
			}
		}
	}()
	res := (&phase{st: st, httpc: httpc, seed: seed, name: name, rec: rec, start: start,
		until: func(el time.Duration, _ int64) bool { return el >= length }}).run()
	close(stop)
	<-stopped
	// A window shorter than a slice (the smoke test's) may end before the
	// ticker fires: close the open slice at the end of the phase.
	if end := time.Since(start).Seconds(); end-marks[len(marks)-1].at > min(sliceLen, length).Seconds()/2 {
		marks = append(marks, sliceMark{end, float64(cpuTime()) / float64(time.Millisecond)})
	}

	cpu1 := cpuTime()
	bytes1 := st.journalBytes()
	nodes1, gw1 := st.nodeCounters(), st.gatewayCounters()
	runtime.ReadMemStats(&ms1)
	return window{
		res:          res,
		marks:        marks,
		cpuMS:        float64(cpu1-cpu0) / float64(time.Millisecond),
		nodes:        nodes1.Sub(nodes0),
		gw:           gw1.Sub(gw0),
		journalBytes: bytes1 - bytes0,
		mallocs:      ms1.Mallocs - ms0.Mallocs,
		allocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		gcPauseNS:    ms1.PauseTotalNs - ms0.PauseTotalNs,
	}
}

// endToEnd reduces the measured window to the client-observed metrics.
// The window is cut into slices of about sliceLen; a job belongs to the
// slice it completed in, and jobs that completed after the window closed
// (the clients drain what they started) are left out. Each metric is
// computed per slice and reported as its quiet quartile across slices (see
// quietQuartile). minSlice is the fewest latency samples any slice holds.
func endToEnd(w window, setupS float64) (_ map[string]metric, minSlice int) {
	recs := w.res.records
	doneAt := make([]float64, len(recs))
	for i, r := range recs {
		doneAt[i] = r.doneAt
	}
	marks := make([]float64, len(w.marks))
	for i, m := range w.marks {
		marks[i] = m.at
	}
	minSlice = len(recs)
	var rate, cpu, lat50, lat99, ack50, ack99 []float64
	for k, idx := range sliceIndexes(doneAt, marks) {
		if len(idx) == 0 {
			continue // a slice in which nothing finished has no latency to report
		}
		minSlice = min(minSlice, len(idx))
		lats, acks := make([]float64, len(idx)), make([]float64, len(idx))
		for j, i := range idx {
			lats[j], acks[j] = recs[i].latMS, recs[i].ackMS
		}
		n := float64(len(idx))
		rate = append(rate, n/(marks[k+1]-marks[k]))
		cpu = append(cpu, (w.marks[k+1].cpuMS-w.marks[k].cpuMS)/n)
		lat50, lat99 = append(lat50, stats.Percentile(lats, 50)), append(lat99, stats.Percentile(lats, 99))
		ack50, ack99 = append(ack50, stats.Percentile(acks, 50)), append(ack99, stats.Percentile(acks, 99))
	}
	return map[string]metric{
		"jobs_per_s":     {quietQuartile(rate, "higher"), "1/s"},
		"lat_p50_ms":     {quietQuartile(lat50, "lower"), "ms"},
		"lat_p99_ms":     {quietQuartile(lat99, "lower"), "ms"},
		"ack_p50_ms":     {quietQuartile(ack50, "lower"), "ms"},
		"ack_p99_ms":     {quietQuartile(ack99, "lower"), "ms"},
		"cpu_ms_per_job": {quietQuartile(cpu, "lower"), "ms"},
		"rss_peak_mb":    {rssPeakMB(), "MB"},
		"setup_s":        {setupS, "s"},
	}, minSlice
}

// checkLedger asserts the job ledger from outside: every job a 202 covered
// was followed to a terminal state by its client, so the servers must have
// admitted and settled exactly that many — no more (a duplicate run), no
// fewer (a lost job) — and a journaled stack must have journaled them.
func checkLedger(st *stack, total phaseResult) error {
	nodes := st.nodeCounters()
	acked := float64(total.acked)
	settled := nodes["/server/jobs/completed"] + nodes["/server/jobs/failed"] + nodes["/server/jobs/cancelled"]
	if nodes["/server/jobs/submitted"] != acked || settled != acked {
		return fmt.Errorf("ledger: clients saw %v jobs acknowledged; nodes admitted %v and settled %v",
			acked, nodes["/server/jobs/submitted"], settled)
	}
	if st.gateway != nil {
		gw := st.gatewayCounters()
		if gw["/mesh/jobs/submitted"] != acked || gw["/mesh/jobs/terminal"] != acked {
			return fmt.Errorf("ledger: clients saw %v jobs acknowledged; gateway placed %v and saw %v terminal",
				acked, gw["/mesh/jobs/submitted"], gw["/mesh/jobs/terminal"])
		}
	}
	if st.wl.journalFsync != "" && nodes["/journal/appends"] < acked {
		return fmt.Errorf("ledger: %v jobs acknowledged but only %v journal appends", acked, nodes["/journal/appends"])
	}
	return nil
}

// cpuTime is the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB; where
// /proc is absent it falls back to getrusage's maximum RSS.
func rssPeakMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
