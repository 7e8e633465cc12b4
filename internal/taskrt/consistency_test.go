package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"

	"taskgrain/internal/counters"
)

// pairLE is a counter pair whose first reading must never exceed the
// second, in one snapshot and in the delta of two.
type pairLE struct{ lo, hi string }

// consistencyPairs are the pairs the paper's formulas divide: queue misses
// by accesses (Sec. II-A), and Σt_exec by Σt_func (Eq. 1), in total and
// per worker instance for the queue pairs.
func consistencyPairs(workers int) []pairLE {
	ps := []pairLE{
		{counters.PendingMisses, counters.PendingAccesses},
		{counters.StagedMisses, counters.StagedAccesses},
		{counters.TimeExecTotal, counters.TimeFuncTotal},
	}
	for w := 0; w < workers; w++ {
		ps = append(ps,
			pairLE{counters.InstanceName(counters.PendingMisses, w), counters.InstanceName(counters.PendingAccesses, w)},
			pairLE{counters.InstanceName(counters.StagedMisses, w), counters.InstanceName(counters.StagedAccesses, w)})
	}
	return ps
}

// TestCounterConsistencyUnderLoad takes 10k snapshots while workers both
// run tasks and spin on empty queues, and checks that no snapshot and no
// delta of consecutive snapshots reports more misses than accesses or more
// exec time than func time; LoopTotals readings interleaved with the
// snapshots are checked the same way. Pairs kept as independent counters fail this:
// a spinning worker's misses land between the reads of accesses and
// misses within the first few snapshots, and a long phase closing inside a
// short interval adds more exec than func to that delta.
func TestCounterConsistencyUnderLoad(t *testing.T) {
	const workers, snapshots = 4, 10_000
	rt := New(WithWorkers(workers), WithParkAfter(1<<30)) // never park: spin
	rt.Start()
	defer rt.Shutdown()

	stop := make(chan struct{})
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		var sink atomic.Int64
		fns := make([]func(*Context), 64)
		for i := range fns {
			n := i * 200 // phases from nothing to a few µs
			fns[i] = func(*Context) {
				x := 0
				for j := 0; j < n; j++ {
					x += j
				}
				sink.Add(int64(x))
			}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := rt.NewGroup()
			g.SpawnBatch(fns)
			g.Spawn(func(c *Context) { c.Yield(func(*Context) {}) })
			g.Wait()
		}
	}()

	pairs := consistencyPairs(workers)
	check := func(what string, i int, s counters.Snapshot) {
		for _, p := range pairs {
			if lo, hi := s.Get(p.lo), s.Get(p.hi); lo > hi {
				t.Fatalf("%s %d: %s = %v > %s = %v", what, i, p.lo, lo, p.hi, hi)
			}
		}
	}
	// LoopTotals is the per-job reading of the same Σt_exec/Σt_func pair, so
	// it is held to the same bound in every reading and every delta.
	checkLoop := func(what string, i int, e, f int64) {
		if e > f {
			t.Fatalf("LoopTotals %s %d: exec %d > func %d", what, i, e, f)
		}
	}
	prev := rt.Counters().Snapshot()
	check("snapshot", 0, prev)
	prevE, prevF := rt.LoopTotals()
	checkLoop("reading", 0, prevE, prevF)
	for i := 1; i < snapshots; i++ {
		cur := rt.Counters().Snapshot()
		check("snapshot", i, cur)
		check("delta", i, cur.Sub(prev))
		prev = cur
		e, f := rt.LoopTotals()
		checkLoop("reading", i, e, f)
		checkLoop("delta", i, e-prevE, f-prevF)
		prevE, prevF = e, f
	}
	close(stop)
	feeder.Wait()
	if got := prev.Get(counters.CountCumulative); got == 0 {
		t.Fatal("no task ran during the snapshots")
	}
}
