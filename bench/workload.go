package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"

	"taskgrain/internal/stencil"
)

// Sizing shared by every workload: the host this benchmark was calibrated
// on has two cores, so two closed-loop clients on two keep-alive
// connections drive two runtime workers per node. More clients than cores
// would measure the Go scheduler's time-slicing, not the serving stack.
const (
	numClients  = 2
	nodeWorkers = 2
	batchSize   = 64
	// maxQueuedJobs must hold every job the closed loop can have
	// outstanding (2 clients × 64-job batches) or the queue bound would
	// shed by construction; the default of 64 is one batch short.
	maxQueuedJobs = 256
	// noIdleShedding lifts the task-flow floor of the idle-rate shedder out
	// of reach, as the repository's own serving benchmarks do. With the
	// default floor a stream of tiny jobs (workers mostly idle, a few
	// hundred tasks per sampling interval) reads as "overhead-bound" and
	// about 96% of submissions are refused with 429 — admission control
	// doing what it was built to do, but this benchmark sends nothing
	// twice and needs workloads on which no operation fails. Queue and
	// backlog bounds stay in force.
	noIdleShedding = 1e12
)

// workload is one traffic mix and the stack it runs against.
type workload struct {
	name string
	why  string

	kind  string // job kind submitted
	batch int    // jobs per POST (1 = POST /v1/jobs)

	journalFsync string // "" = journal off
	meshNodes    int    // 0 = clients talk to the node directly
	// warmJobs is how many terminal jobs warm-up must see before measuring:
	// past the store's retention bound (1024 on a node, 4096 on the
	// gateway), so eviction runs on every admission as it does on a
	// long-lived daemon.
	warmJobs int
}

// The four workloads. Names are fixed: later issues cite them.
var workloads = []*workload{
	{
		name:         "tiny-single-always",
		why:          "HTTP + admission + 3 synchronous fsyncs per job dominate, taskrt idles: the admission wall",
		kind:         "fibonacci",
		batch:        1,
		journalFsync: "always",
		warmJobs:     1100,
	},
	{
		name:         "tiny-batch64-interval",
		why:          "same layers via SubmitBatch/AppendBatch and 64 status reads per write: fsync amortised, JSON/store/polls dominate",
		kind:         "fibonacci",
		batch:        batchSize,
		journalFsync: "interval",
		warmJobs:     1100,
	},
	{
		name:     "stencil-finegrain",
		why:      "about 4000 tasks per job at grain 250: taskrt/queue/future/stencil do the work, serving path and journal do little",
		kind:     "stencil1d",
		batch:    1,
		warmJobs: 1100,
	},
	{
		name:         "mesh-tiny-single",
		why:          "tiny-single traffic through a journaled gateway over 2 nodes: adds route, placement journal, forward, status relay",
		kind:         "fibonacci",
		batch:        1,
		journalFsync: "interval",
		meshNodes:    2,
		warmJobs:     4200,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Every job carries an explicit grain, which keeps the adaptive controller
// out, so the task count per job repeats exactly run to run.
const (
	stencilSteps = 5
	stencilGrain = 250
)

var (
	fibSizes     = []int{8, 9, 10, 11, 12}
	stencilSizes = []int{180_000, 200_000, 220_000}
)

// jobGen draws job sizes and request identities for one client from the
// run seed. The servers see only the generated requests.
type jobGen struct {
	wl     *workload
	rng    *rand.Rand
	prefix string // idempotency-key prefix, unique per run, phase and client
	n      int
}

func newJobGen(wl *workload, seed int64, phase string, client int) *jobGen {
	prefix := fmt.Sprintf("b%d-%s-c%d-", seed, phase, client)
	h := fnv.New64a()
	h.Write([]byte(prefix))
	return &jobGen{
		wl:     wl,
		rng:    rand.New(rand.NewSource(int64(h.Sum64()))),
		prefix: prefix,
	}
}

// genJob is one generated request: its wire spec and expected checksum.
type genJob struct {
	size int
	want float64
}

// next appends one job spec (a JSON object) to buf.
func (g *jobGen) next(buf []byte) ([]byte, genJob) {
	g.n++
	var j genJob
	buf = append(buf, `{"kind":"`...)
	buf = append(buf, g.wl.kind...)
	buf = append(buf, `","size":`...)
	if g.wl.kind == "stencil1d" {
		j.size = stencilSizes[g.rng.Intn(len(stencilSizes))]
		j.want = stencilChecksum(j.size)
		buf = strconv.AppendInt(buf, int64(j.size), 10)
		buf = append(buf, `,"steps":`...)
		buf = strconv.AppendInt(buf, stencilSteps, 10)
		buf = append(buf, `,"grain":`...)
		buf = strconv.AppendInt(buf, stencilGrain, 10)
	} else {
		// grain = size makes every fibonacci job exactly three tasks (two
		// sequential leaves and their join). Left to the adaptive
		// controller the cutoff moves on nearly every job and a "tiny" job
		// grows to over a hundred tasks, which would put taskrt back on the
		// critical path of the workloads meant to keep it off.
		j.size = fibSizes[g.rng.Intn(len(fibSizes))]
		j.want = fibChecksum(j.size)
		buf = strconv.AppendInt(buf, int64(j.size), 10)
		buf = append(buf, `,"grain":`...)
		buf = strconv.AppendInt(buf, int64(j.size), 10)
	}
	buf = append(buf, `,"idempotency_key":"`...)
	buf = append(buf, g.prefix...)
	buf = strconv.AppendInt(buf, int64(g.n), 10)
	buf = append(buf, `"}`...)
	return buf, j
}

// request appends the body of one POST carrying n jobs — a bare spec for
// POST /v1/jobs, {"jobs":[...]} for the batch endpoint — to buf and the
// generated jobs to jobs, and returns both with the path to send it to.
func (g *jobGen) request(n int, buf []byte, jobs []genJob) (path string, _ []byte, _ []genJob) {
	path = jobsPath
	if n > 1 {
		path += "/batch"
		buf = append(buf, `{"jobs":[`...)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		var j genJob
		buf, j = g.next(buf)
		jobs = append(jobs, j)
	}
	if n > 1 {
		buf = append(buf, `]}`...)
	}
	return path, buf, jobs
}

// traceID draws the 64-bit trace identity for the next request (never 0:
// a zero id is an invalid span context).
func (g *jobGen) traceID() uint64 {
	for {
		if id := g.rng.Uint64(); id != 0 {
			return id
		}
	}
}

// fibChecksum is the closed-form reference for a fibonacci job's result.
func fibChecksum(n int) float64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return float64(a)
}

var (
	stencilRefsOnce sync.Once
	stencilRefs     map[int]float64
)

// stencilChecksum is the sequential reference (stencil.Reference) summed in
// ring order, the same order the server sums its partitions in. Only three
// sizes occur; all are solved on first use.
func stencilChecksum(size int) float64 {
	stencilRefsOnce.Do(func() {
		stencilRefs = make(map[int]float64, len(stencilSizes))
		for _, n := range stencilSizes {
			ref, err := stencil.Reference(stencil.Config{
				TotalPoints:        n,
				PointsPerPartition: stencilGrain,
				TimeSteps:          stencilSteps,
			})
			if err != nil {
				panic(err) // fixed, valid configurations
			}
			sum := 0.0
			for _, v := range ref {
				sum += v
			}
			stencilRefs[n] = sum
		}
	})
	return stencilRefs[size]
}
