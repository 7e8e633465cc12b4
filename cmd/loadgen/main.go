// Command loadgen drives a taskgraind server with a stream of job
// submissions and reports serving-path throughput and latency, including how
// often the server shed load and how the adaptive grain settled.
//
// Usage:
//
//	loadgen [flags]
//
//	-addr <url>          server base URL (default http://127.0.0.1:8080)
//	-mesh <a,b,...>      comma-separated target URLs; jobs spread round-robin
//	                     (point at several taskgraind nodes, or at one or
//	                     more taskmeshd gateways; overrides -addr). With
//	                     more than one target the report adds a per-target
//	                     breakdown: p50/p99 latency and shed count per node.
//	-jobs <n>            total jobs to submit (default 100)
//	-batch <n>           submit jobs in batches of this size via
//	                     POST /v1/jobs/batch (default 1 = single-job path);
//	                     shed items are retried with backoff, and the report
//	                     adds per-batch submit round-trip percentiles next to
//	                     the per-item submit→terminal ones
//	-concurrency <n>     concurrent client workers (default 4)
//	-kind <name>         stencil1d | fibonacci | irregular | taskbench
//	-size <n>            problem size / taskbench grid width (default 100000)
//	-steps <n>           stencil / taskbench time steps (default 4)
//	-grain <n>           task grain; 0 lets the server choose adaptively
//	-seed <n>            irregular DAG / taskbench random-pattern seed
//	-pattern <name>      taskbench dependence pattern (default stencil1d)
//	-kernel <name>       taskbench per-task kernel (busywork or memwalk)
//	-metg                taskbench: also request a per-job METG(50%) search
//	-deadline <dur>      per-job deadline (0 = server default)
//	-submit-only         measure the admission path alone: submit every job
//	                     (single or batched) but never poll it to a terminal
//	                     state. The report switches to admission figures —
//	                     jobs/s through POST and per-item ack percentiles —
//	                     isolating the per-request wall from execution cost
//	-wait-timeout <dur>  long-poll timeout per status request (default 30s)
//	-max-backoff <dur>   cap on honouring Retry-After after a shed (default 1s)
//	-max-retries <n>     submits abandoned after n sheds (0 = retry forever)
//	-id-log <file>       append each admitted job ID to this file (one per
//	                     line) — feed it to a later -expect-recovered run
//	-expect-recovered <file>
//	                     recovery assertion mode: submit nothing; poll every
//	                     job ID listed in the file (as written by -id-log
//	                     before a crash) to a terminal state against the
//	                     restarted target, exiting 1 if any ID is missing or
//	                     never terminates — the journal lost it
//
// Each worker POSTs a job; on 429/503 it honours the Retry-After hint
// (capped by -max-backoff) and retries, counting the shed. Admitted jobs are
// long-polled to a terminal state; the submit→terminal latency feeds the
// percentile report. All requests share one http.Client whose timeout is the
// long-poll budget plus slack, so a hung server cannot wedge a worker
// forever.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskgrain/internal/stats"
	"taskgrain/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the load generator against the given flag arguments and
// streams; split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL")
	meshTargets := fs.String("mesh", "", "comma-separated target URLs; jobs spread round-robin (overrides -addr)")
	jobs := fs.Int("jobs", 100, "total jobs to submit")
	batch := fs.Int("batch", 1, "submit jobs in batches of this size via POST /v1/jobs/batch (1 = single-job path)")
	concurrency := fs.Int("concurrency", 4, "concurrent client workers")
	kind := fs.String("kind", "stencil1d", "job kind")
	size := fs.Int("size", 100_000, "problem size")
	steps := fs.Int("steps", 4, "stencil/taskbench time steps")
	grain := fs.Int("grain", 0, "task grain (0 = server chooses adaptively)")
	seed := fs.Int64("seed", 0, "irregular DAG / taskbench seed")
	pattern := fs.String("pattern", "", "taskbench dependence pattern")
	kernel := fs.String("kernel", "", "taskbench per-task kernel")
	metg := fs.Bool("metg", false, "taskbench: request per-job METG search")
	deadline := fs.Duration("deadline", 0, "per-job deadline (0 = server default)")
	submitOnly := fs.Bool("submit-only", false, "submit without polling to terminal; report admission throughput and ack percentiles")
	waitTimeout := fs.Duration("wait-timeout", 30*time.Second, "long-poll timeout per status request")
	maxBackoff := fs.Duration("max-backoff", time.Second, "cap on honouring Retry-After")
	maxRetries := fs.Int("max-retries", 0, "abandon a submit after this many sheds (0 = retry forever)")
	idLog := fs.String("id-log", "", "append each admitted job ID to this file")
	expectRecovered := fs.String("expect-recovered", "", "poll the job IDs in this file to terminal instead of submitting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 1 || *concurrency < 1 {
		fmt.Fprintln(stderr, "loadgen: -jobs and -concurrency must be positive")
		return 1
	}
	if *batch < 1 {
		fmt.Fprintln(stderr, "loadgen: -batch must be positive")
		return 1
	}

	raw := []string{*addr}
	if *meshTargets != "" {
		raw = strings.Split(*meshTargets, ",")
	}
	var targets []string
	for _, a := range raw {
		base := strings.TrimRight(strings.TrimSpace(a), "/")
		if base == "" {
			continue
		}
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		targets = append(targets, base)
	}
	if len(targets) == 0 {
		fmt.Fprintln(stderr, "loadgen: -mesh lists no usable targets")
		return 1
	}
	if *expectRecovered != "" {
		return verifyRecovered(*expectRecovered, targets, *concurrency, *waitTimeout,
			&http.Client{Timeout: *waitTimeout + 15*time.Second}, stdout, stderr)
	}
	spec := wire.JobSpec{Kind: *kind, Size: *size, Seed: *seed}
	if *kind == "stencil1d" || *kind == "taskbench" {
		spec.Steps = *steps
	}
	if *kind == "taskbench" {
		spec.Pattern, spec.Kernel, spec.Metg = *pattern, *kernel, *metg
	}
	if *grain > 0 {
		spec.Grain = *grain
	}
	if *deadline > 0 {
		spec.DeadlineMillis = deadline.Milliseconds()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}

	g := &generator{
		targets:     targets,
		perTarget:   make([]targetAgg, len(targets)),
		body:        body,
		batchSize:   *batch,
		submitOnly:  *submitOnly,
		waitTimeout: *waitTimeout,
		maxBackoff:  *maxBackoff,
		maxRetries:  *maxRetries,
		stderr:      stderr,
		// One shared client for every worker: the timeout covers a full
		// long-poll plus slack for connection setup and response transfer, so
		// a wedged server fails the request instead of leaking a goroutine.
		client: &http.Client{Timeout: *waitTimeout + 15*time.Second},
	}
	if *idLog != "" {
		f, err := os.OpenFile(*idLog, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return 1
		}
		defer f.Close()
		g.idLog = f
	}
	wallStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Claim the next chunk of the job budget: one job on the
				// single path, up to -batch jobs on the batch path (the last
				// chunk may run short).
				first := int(next.Add(int64(*batch))) - *batch
				if first >= *jobs {
					return
				}
				n := *batch
				if first+n > *jobs {
					n = *jobs - first
				}
				g.oneBatch(n)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(wallStart)

	g.report(stdout, *jobs, wall)
	for _, target := range targets {
		if stats, err := fetchStats(g.client, target); err == nil && stats != "" {
			if len(targets) > 1 {
				fmt.Fprintf(stdout, "adaptive grains %s: %s\n", target, stats)
			} else {
				fmt.Fprintf(stdout, "server adaptive grains: %s\n", stats)
			}
		}
	}
	if g.errors.Load() > 0 {
		return 1
	}
	return 0
}

// generator holds the shared client state of one load run.
type generator struct {
	targets     []string    // submission targets, picked round-robin per job
	perTarget   []targetAgg // index-aligned per-target accumulators (under mu)
	body        []byte
	batchSize   int  // -batch: jobs per POST /v1/jobs/batch (1 = single path)
	submitOnly  bool // -submit-only: stop at admission, never poll to terminal
	waitTimeout time.Duration
	maxBackoff  time.Duration
	maxRetries  int
	client      *http.Client
	rr          atomic.Uint64
	idLog       io.Writer // when set, admitted job IDs are appended line-wise
	stderr      io.Writer

	mu        sync.Mutex
	latencies []time.Duration
	batchLats []time.Duration // per-batch submit round-trips (batch mode)
	grains    map[int]int     // grain → jobs that ran with it
	metgNs    []float64       // METG figures from taskbench jobs that found one

	done         atomic.Int64
	admitted     atomic.Int64 // submit-only mode: jobs acknowledged 202
	failed       atomic.Int64
	cancelled    atomic.Int64
	sheds        atomic.Int64
	errors       atomic.Int64
	batches      atomic.Int64 // batch POSTs issued
	partialSheds atomic.Int64 // batch POSTs that admitted some items and shed others
}

// targetAgg is one -mesh target's slice of the run, reported separately when
// the run spreads over several targets. Guarded by generator.mu.
type targetAgg struct {
	latencies []time.Duration // submit→terminal, jobs pinned to this target
	sheds     int             // 429/503 bounces this target handed back
	terminal  int             // jobs that reached a terminal state here
}

// recordAck accounts n admitted jobs in submit-only mode: the ack latency —
// submit start to the 202 that admitted them, shed retries included — stands
// in for the submit→terminal sample, once per job so batch percentiles weigh
// each item.
func (g *generator) recordAck(idx, n int, ack time.Duration) {
	g.admitted.Add(int64(n))
	g.mu.Lock()
	for i := 0; i < n; i++ {
		g.latencies = append(g.latencies, ack)
		g.perTarget[idx].latencies = append(g.perTarget[idx].latencies, ack)
	}
	g.perTarget[idx].terminal += n
	g.mu.Unlock()
}

// logAdmitted appends an admitted job ID to the -id-log file. The log is the
// pre-crash half of a recovery assertion: an ID that cannot be persisted must
// fail the run *now*, or the later -expect-recovered pass silently checks
// fewer jobs. Reports false when the run must abandon the job.
func (g *generator) logAdmitted(id string) bool {
	if g.idLog == nil {
		return true
	}
	g.mu.Lock()
	_, err := fmt.Fprintln(g.idLog, id)
	g.mu.Unlock()
	if err != nil {
		fmt.Fprintln(g.stderr, "loadgen: id-log:", err)
		g.errors.Add(1)
		return false
	}
	return true
}

// followJob long-polls one admitted job to a terminal state, feeding the
// latency, grain, and METG accumulators. submitStart anchors the
// submit→terminal latency sample.
func (g *generator) followJob(idx int, base, id string, submitStart time.Time) {
	for {
		resp, err := g.client.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=true&timeout=%s", base, id, g.waitTimeout))
		if err != nil {
			g.errors.Add(1)
			return
		}
		var v wire.JobView
		status := resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			if status == http.StatusOK {
				// The server answered the poll but the payload arrived garbled
				// (e.g. a body truncated mid-transfer). The job's fate is
				// unknown, which for the report is a terminal failure — it must
				// land in the latency and per-target breakdown, not vanish into
				// the transport-error count as if the server were unreachable.
				g.failed.Add(1)
				g.mu.Lock()
				g.latencies = append(g.latencies, time.Since(submitStart))
				g.perTarget[idx].latencies = append(g.perTarget[idx].latencies, time.Since(submitStart))
				g.perTarget[idx].terminal++
				g.mu.Unlock()
				return
			}
			g.errors.Add(1)
			return
		}
		switch v.State {
		case wire.JobDone:
			g.done.Add(1)
		case wire.JobFailed:
			g.failed.Add(1)
		case wire.JobCancelled:
			g.cancelled.Add(1)
		default:
			continue // long-poll timed out before terminal; poll again
		}
		g.mu.Lock()
		g.latencies = append(g.latencies, time.Since(submitStart))
		g.perTarget[idx].latencies = append(g.perTarget[idx].latencies, time.Since(submitStart))
		g.perTarget[idx].terminal++
		if g.grains == nil {
			g.grains = make(map[int]int)
		}
		g.grains[v.Grain]++
		if v.Result != nil && v.Result.MetgFound {
			g.metgNs = append(g.metgNs, v.Result.MetgNs)
		}
		g.mu.Unlock()
		return
	}
}

// oneBatch submits n copies of the job spec in one POST — a single job is a
// batch of one — retrying shed items in ever-smaller batches with backoff,
// then follows every admitted job to a terminal state concurrently (so one
// slow job does not serialize the observation of its batch-mates). The batch
// is pinned to one target — chosen round-robin across the -mesh list — so
// its status polls go where it was admitted.
func (g *generator) oneBatch(n int) {
	idx := int(g.rr.Add(1)-1) % len(g.targets)
	base := g.targets[idx]
	submitStart := time.Now()
	var ids []string
	remaining := n
	retries := 0
	for remaining > 0 {
		t0 := time.Now()
		results, retryAfter, err := g.post(base, remaining)
		if err != nil {
			g.errors.Add(int64(remaining))
			break
		}
		g.batches.Add(1)
		g.mu.Lock()
		g.batchLats = append(g.batchLats, time.Since(t0))
		g.mu.Unlock()
		if len(results) != remaining {
			g.errors.Add(int64(remaining))
			break
		}
		admitted, shed := 0, 0
		for _, res := range results {
			switch {
			case res.Status == http.StatusAccepted && res.Job != nil && res.Job.ID != "":
				if !g.logAdmitted(res.Job.ID) {
					continue
				}
				ids = append(ids, res.Job.ID)
				admitted++
			case res.Shed():
				shed++
			default:
				g.errors.Add(1)
			}
		}
		g.sheds.Add(int64(shed))
		g.mu.Lock()
		g.perTarget[idx].sheds += shed
		g.mu.Unlock()
		if admitted > 0 && shed > 0 {
			g.partialSheds.Add(1)
		}
		remaining = shed
		if shed > 0 {
			retries++
			if g.maxRetries > 0 && retries >= g.maxRetries {
				g.errors.Add(int64(shed))
				break
			}
			time.Sleep(g.backoff(retryAfter))
		}
	}

	if g.submitOnly {
		if len(ids) > 0 {
			g.recordAck(idx, len(ids), time.Since(submitStart))
		}
		return
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			g.followJob(idx, base, id, submitStart)
		}(id)
	}
	wg.Wait()
}

// post submits n copies of the spec in the request shape -batch selects —
// POST /v1/jobs (n is then 1) or POST /v1/jobs/batch — and returns one result
// per job plus the reply's Retry-After header. An undecodable reply returns
// no results.
func (g *generator) post(base string, n int) ([]wire.BatchItem, string, error) {
	path, body := "/v1/jobs", g.body
	if g.batchSize > 1 {
		path, body = "/v1/jobs/batch", batchBody(g.body, n)
	}
	resp, err := g.client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	retryAfter := resp.Header.Get("Retry-After")
	if g.batchSize > 1 {
		var v wire.BatchResponse
		_ = json.NewDecoder(resp.Body).Decode(&v)
		return v.Results, retryAfter, nil
	}
	res := wire.BatchItem{Status: resp.StatusCode}
	if resp.StatusCode == http.StatusAccepted {
		var view wire.JobView
		if json.NewDecoder(resp.Body).Decode(&view) == nil {
			res.Job = &view
		}
	}
	return []wire.BatchItem{res}, retryAfter, nil
}

// batchBody renders {"jobs":[spec × n]} from one marshaled spec.
func batchBody(spec []byte, n int) []byte {
	var b bytes.Buffer
	b.Grow(len(spec)*n + n + 16)
	b.WriteString(`{"jobs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(spec)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// backoff converts a Retry-After header to a sleep, capped by -max-backoff.
func (g *generator) backoff(header string) time.Duration {
	d := time.Second
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	}
	if d > g.maxBackoff {
		d = g.maxBackoff
	}
	return d
}

// report prints the throughput and latency summary. It must stay well-formed
// with zero samples — a run where every job shed or errored reports zeros,
// never NaN and never a panic.
func (g *generator) report(w io.Writer, jobs int, wall time.Duration) {
	g.mu.Lock()
	latMs := make([]float64, len(g.latencies))
	for i, d := range g.latencies {
		latMs[i] = float64(d) / float64(time.Millisecond)
	}
	grains := make(map[int]int, len(g.grains))
	for k, v := range g.grains {
		grains[k] = v
	}
	metg := append([]float64(nil), g.metgNs...)
	batchMs := make([]float64, len(g.batchLats))
	for i, d := range g.batchLats {
		batchMs[i] = float64(d) / float64(time.Millisecond)
	}
	perTarget := make([]targetAgg, len(g.perTarget))
	for i, agg := range g.perTarget {
		perTarget[i] = targetAgg{
			latencies: append([]time.Duration(nil), agg.latencies...),
			sheds:     agg.sheds,
			terminal:  agg.terminal,
		}
	}
	g.mu.Unlock()

	done := g.done.Load()
	if g.submitOnly {
		fmt.Fprintf(w, "jobs       %d submitted, %d admitted, %d errors (submit-only)\n",
			jobs, g.admitted.Load(), g.errors.Load())
	} else {
		fmt.Fprintf(w, "jobs       %d submitted, %d done, %d failed, %d cancelled, %d errors\n",
			jobs, done, g.failed.Load(), g.cancelled.Load(), g.errors.Load())
	}
	fmt.Fprintf(w, "sheds      %d (429/503 retried with backoff)\n", g.sheds.Load())
	if g.batchSize > 1 {
		fmt.Fprintf(w, "batches    %d submitted (size %d), %d partially shed\n",
			g.batches.Load(), g.batchSize, g.partialSheds.Load())
		fmt.Fprintf(w, "batch-rtt  p50 %.1f ms, p99 %.1f ms (%d submit round-trips)\n",
			stats.Percentile(batchMs, 50), stats.Percentile(batchMs, 99), len(batchMs))
	}
	fmt.Fprintf(w, "wall       %.3f s\n", wall.Seconds())
	// stats.Percentile returns 0 on an empty set, so the percentile lines
	// print unconditionally: all-shed runs read "p50 0.0 ms" rather than
	// crashing.
	if g.submitOnly {
		if wall > 0 {
			fmt.Fprintf(w, "submit     %.1f jobs/s admitted (admission path only)\n",
				float64(g.admitted.Load())/wall.Seconds())
		}
		fmt.Fprintf(w, "ack        p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, max %.1f ms (%d per-item admission acks)\n",
			stats.Percentile(latMs, 50), stats.Percentile(latMs, 95),
			stats.Percentile(latMs, 99), stats.Percentile(latMs, 100), len(latMs))
	} else {
		if wall > 0 {
			fmt.Fprintf(w, "throughput %.1f jobs/s\n", float64(done)/wall.Seconds())
		}
		fmt.Fprintf(w, "latency    p50 %.1f ms, p95 %.1f ms, p99 %.1f ms, max %.1f ms (%d samples)\n",
			stats.Percentile(latMs, 50), stats.Percentile(latMs, 95),
			stats.Percentile(latMs, 99), stats.Percentile(latMs, 100), len(latMs))
	}
	// Per-target breakdown, only when the run actually spread: a skewed mesh
	// shows up as one target's p99 or shed count diverging from the rest.
	if len(g.targets) > 1 {
		for i, target := range g.targets {
			agg := perTarget[i]
			tms := make([]float64, len(agg.latencies))
			for j, d := range agg.latencies {
				tms[j] = float64(d) / float64(time.Millisecond)
			}
			fmt.Fprintf(w, "target     %s: p50 %.1f ms, p99 %.1f ms, sheds %d (%d terminal)\n",
				target, stats.Percentile(tms, 50), stats.Percentile(tms, 99),
				agg.sheds, agg.terminal)
		}
	}
	if len(metg) > 0 {
		fmt.Fprintf(w, "metg       p50 %.1f µs across %d jobs that found one\n",
			stats.Percentile(metg, 50)/1e3, len(metg))
	}
	if len(grains) > 0 {
		keys := make([]int, 0, len(grains))
		for k := range grains {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%d×%d", grains[k], k))
		}
		fmt.Fprintf(w, "grains     %s (jobs×grain)\n", strings.Join(parts, ", "))
	}
}

// verifyRecovered is the -expect-recovered mode: every job ID in the file —
// written by a pre-crash -id-log run — must still resolve on the restarted
// target(s) and reach a terminal state. An ID answering 404 or stuck
// non-terminal means the journal lost an acknowledged job; the run exits 1
// and names it.
func verifyRecovered(path string, targets []string, concurrency int, waitTimeout time.Duration, client *http.Client, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	var ids []string
	for _, line := range strings.Split(string(data), "\n") {
		if s := strings.TrimSpace(line); s != "" {
			ids = append(ids, s)
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "loadgen: -expect-recovered file lists no job IDs")
		return 1
	}

	var mu sync.Mutex
	states := map[string]int{}
	var lost []string
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				id := ids[i]
				state, reason := pollRecovered(client, targets[i%len(targets)], id, waitTimeout)
				mu.Lock()
				if state == "" {
					lost = append(lost, fmt.Sprintf("%s (%s)", id, reason))
				} else {
					states[state]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	fmt.Fprintf(stdout, "recovered  %d/%d jobs reached a terminal state (%d done, %d failed, %d cancelled)\n",
		len(ids)-len(lost), len(ids), states["done"], states["failed"], states["cancelled"])
	if len(lost) > 0 {
		sort.Strings(lost)
		for _, l := range lost {
			fmt.Fprintf(stderr, "loadgen: lost across restart: %s\n", l)
		}
		return 1
	}
	return 0
}

// pollRecovered follows one recovered job to a terminal state. It returns the
// state, or "" with a reason when the job is missing (404 — the journal
// forgot an acknowledged job) or runs out its poll budget non-terminal.
func pollRecovered(client *http.Client, base, id string, waitTimeout time.Duration) (state, reason string) {
	deadline := time.Now().Add(2*waitTimeout + 30*time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=true&timeout=%s", base, id, waitTimeout))
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var v wire.JobView
		status := resp.StatusCode
		decErr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if status == http.StatusNotFound {
			return "", "404 not found"
		}
		if status != http.StatusOK || decErr != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if v.State.Terminal() {
			return string(v.State), ""
		}
	}
	return "", "never reached a terminal state"
}

// fetchStats pulls a target's adaptive grain map for the report footer.
func fetchStats(client *http.Client, base string) (string, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var stats struct {
		AdaptiveGrains map[string]int `json:"adaptive_grains"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return "", err
	}
	kinds := make([]string, 0, len(stats.AdaptiveGrains))
	for k := range stats.AdaptiveGrains {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, stats.AdaptiveGrains[k]))
	}
	return strings.Join(parts, " "), nil
}
