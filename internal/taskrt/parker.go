package taskrt

import (
	"sync/atomic"
	"time"
)

// Per-worker park/wake. The previous scheme had every parked worker's
// timeout Broadcast a single global condition variable, waking *all* parked
// workers into full discovery sweeps (a thundering herd that inflated the
// pending/staged-access counters even on an idle runtime) and made every
// Spawn serialize on the global park mutex. Each worker now owns a private
// parker: a tiny three-state eventcount built on a capacity-1 semaphore
// channel plus one reusable timer. Wakers target a specific parked worker —
// NUMA-local to the spawned task's home queue first, matching the Fig. 1
// discovery order — so a spawn wakes exactly one worker, locklessly.
//
// Coalescing: a waker transitions parked→notified with one CAS, so a burst
// of spawns signals a given worker at most once per park cycle; once every
// parked worker is notified, further wakes are free (a failed CAS scan).
// A wake token that races a timeout is not lost — it stays in the semaphore
// and short-circuits the worker's next park attempt.

// parker states.
const (
	parkerRunning  int32 = iota // worker is in its discovery/run loop
	parkerParked                // worker is blocked awaiting a wake or timeout
	parkerNotified              // a wake was delivered for the current cycle
)

// parker is one worker's park point. Only the owning worker parks on it;
// any goroutine may wake it.
type parker struct {
	state atomic.Int32
	// sema carries wake tokens. Capacity 1 + non-blocking send = coalescing;
	// an unconsumed token persists across park cycles, so a wake can never
	// be lost to a timeout race (at worst it causes one spurious sweep).
	sema chan struct{}
	// timer is reused across parks; owned (Reset/Stop) by the worker only.
	timer *time.Timer
}

// unpark delivers a targeted wake if the worker is currently parked,
// reporting whether it did. The parked→notified CAS makes concurrent wakers
// coalesce: only one of them signals, the rest fail and try the next worker.
func (p *parker) unpark() bool {
	if p.state.CompareAndSwap(parkerParked, parkerNotified) {
		select {
		case p.sema <- struct{}{}:
		default:
		}
		return true
	}
	return false
}

// forceWake unconditionally deposits a wake token, regardless of parker
// state. Used by Shutdown and SetActiveWorkers, where every worker must
// re-check runtime state promptly; a token delivered to a running worker
// just short-circuits its next park.
func (p *parker) forceWake() {
	select {
	case p.sema <- struct{}{}:
	default:
	}
}

// parkWorker blocks worker w until a wake token arrives or d elapses,
// reporting whether it was woken by a signal (true) or the timeout backstop
// (false). Parked time still accrues to t_func — the worker's idle interval
// stays open in the loop pair while it waits — so starvation surfaces in
// the idle-rate exactly as in the paper.
func (rt *Runtime) parkWorker(w int, d time.Duration) (signaled bool) {
	p := &rt.parkers[w]
	// Fast path: consume a token left by a wake that raced a previous
	// timeout. No state change needed; the worker never actually blocks.
	select {
	case <-p.sema:
		p.state.Store(parkerRunning)
		return true
	default:
	}
	rt.parked.Add(1)
	p.state.Store(parkerParked)
	if p.timer == nil {
		p.timer = time.NewTimer(d)
	} else {
		// Go 1.23+ timer semantics: Reset flushes any pending fire, so the
		// reused channel never holds a stale tick.
		p.timer.Reset(d)
	}
	select {
	case <-p.sema:
		signaled = true
		p.timer.Stop()
	case <-p.timer.C:
	}
	p.state.Store(parkerRunning)
	rt.parked.Add(-1)
	return signaled
}

// wakeOne wakes at most one parked worker, preferring workers close to the
// spawned task's home queue: the home worker itself, then its NUMA-local
// siblings, then remote domains by ring distance — the same order discovery
// steals in (Fig. 1), so the woken worker finds the task on its first or
// second probe. home < 0 means the task landed on a shared (high/low
// priority) queue; pick a starting point round-robin. The whole path is
// lock-free: an atomic fast path when nobody is parked, then a CAS scan.
func (rt *Runtime) wakeOne(home int) {
	if rt.parked.Load() == 0 {
		return
	}
	order := rt.wakeOrder
	if home < 0 || home >= len(order) {
		home = int(rt.wakeRR.Add(1)-1) % len(order)
	}
	scan := order[home]
	if h := rt.cfg.Hooks; h != nil {
		// Chaos injection: delay this wake and/or perturb which worker it
		// lands on. The scan order is copied so a permutation perturbs one
		// wake without corrupting the cached Fig. 1 order.
		h.PreWake(home)
		scan = append([]int(nil), scan...)
		h.PermuteVictims(home, scan)
	}
	for _, w := range scan {
		if rt.parkers[w].unpark() {
			rt.wakeSignals.Inc(w)
			return
		}
	}
}

// forceWakeAll deposits a wake token in every parker so all workers
// promptly re-check runtime state (stop flag, throttle limit).
func (rt *Runtime) forceWakeAll() {
	for i := range rt.parkers {
		rt.parkers[i].forceWake()
	}
}
