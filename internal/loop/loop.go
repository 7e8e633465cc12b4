// Package loop is the one runner for periodic background work: the journal
// flusher, the node's telemetry sampler, the mesh heartbeats and both sweepers
// start through Meter.Every and stop through Loop.Stop. Every loop name
// exports what it costs, in the counter idiom the rest of the stack uses:
//
//	/loops{<name>}/count/runs   runs completed (cumulative)
//	/loops{<name>}/time/busy    ns spent inside the loop body (cumulative)
//
// Each Loop keeps its own goroutine, so a slow body (a heartbeat GET that may
// take a request timeout) never delays a fast one (a 2 ms fsync flusher).
package loop

import (
	"sync"
	"time"

	"taskgrain/internal/counters"
)

// Meter is one loop name's counter pair. Loops started from the same Meter
// (one heartbeat per node) add into one pair.
type Meter struct {
	runs, busy *counters.Cumulative
}

// NewMeter creates the counter pair for name.
func NewMeter(name string) Meter {
	return Meter{
		runs: counters.NewCumulative("/loops{" + name + "}/count/runs"),
		busy: counters.NewCumulative("/loops{" + name + "}/time/busy"),
	}
}

// Register adds the pair to reg.
func (m Meter) Register(reg *counters.Registry) {
	reg.MustRegister(m.runs)
	reg.MustRegister(m.busy)
}

// Loop is one running periodic loop.
type Loop struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Every starts a loop that calls fn once per period d, the first call one
// period from now, counting each run into m. Runs never overlap: a run longer
// than d delays the next tick instead of queueing more.
func (m Meter) Every(d time.Duration, fn func()) *Loop {
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
			}
			select { // a tick that raced Stop loses
			case <-l.stop:
				return
			default:
			}
			start := time.Now()
			fn()
			m.busy.Add(int64(time.Since(start)))
			m.runs.Inc()
		}
	}()
	return l
}

// Stop ends the loop and waits out a run in progress, so fn never runs after
// Stop returns. It is idempotent, safe to call concurrently, and does nothing
// on a nil Loop (an owner that never started its loop).
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.once.Do(func() { close(l.stop) })
	<-l.done
}
