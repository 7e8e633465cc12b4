package chaos

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"taskgrain/internal/counters"
	"taskgrain/internal/telemetry"
	"taskgrain/internal/trace"
)

// Verifier accumulates invariant violations across one chaos scenario. The
// checks mirror what the rest of the repo silently assumes: the Eq. 1
// counters only mean anything if work is conserved, cumulative counters
// never run backwards, and every trace span that opens eventually closes.
// All methods are safe for concurrent use.
type Verifier struct {
	mu       sync.Mutex
	failures []string
}

// NewVerifier returns an empty verifier.
func NewVerifier() *Verifier { return &Verifier{} }

// Failf records one violation.
func (v *Verifier) Failf(format string, args ...any) {
	v.mu.Lock()
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

// OK reports whether every check so far held.
func (v *Verifier) OK() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.failures) == 0
}

// Failures returns the recorded violations in order.
func (v *Verifier) Failures() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.failures...)
}

// MonotonicNames returns the registry's monotonic counter names — the ones
// counters.Monotonic accepts, the same classification the OpenMetrics
// exporter uses to stamp the _total suffix. These are the counters
// CheckMonotonic audits.
func MonotonicNames(reg *counters.Registry) []string {
	var names []string
	for _, n := range reg.Names() {
		c, ok := reg.Get(n)
		if !ok {
			continue
		}
		if counters.Monotonic(c) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// CheckMonotonic asserts cur >= prev for every named counter — cumulative
// (_total) kinds must never regress across a scenario, whatever faults ran.
func (v *Verifier) CheckMonotonic(subject string, prev, cur counters.Snapshot, names []string) {
	for _, n := range names {
		if cur.Get(n) < prev.Get(n) {
			v.Failf("%s: counter %s ran backwards: %v -> %v", subject, n, prev.Get(n), cur.Get(n))
		}
	}
}

// CheckSeriesMonotonic asserts a counter never regresses across the
// telemetry ring's retained samples — the sampled view of the same
// monotonicity CheckMonotonic asserts pointwise.
func (v *Verifier) CheckSeriesMonotonic(subject string, ring *telemetry.Ring, name string) {
	samples := ring.Last(ring.Capacity())
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1].Values.Get(name), samples[i].Values.Get(name)
		if cur < prev {
			v.Failf("%s: series %s ran backwards at sample %d: %v -> %v",
				subject, name, i, prev, cur)
		}
	}
}

// CheckConservation asserts total == Σ parts within tol — the inflight
// conservation law (everything spawned is completed, failed, or shed;
// nothing vanishes and nothing is invented).
func (v *Verifier) CheckConservation(subject string, snap counters.Snapshot, total string, tol float64, parts ...string) {
	var sum float64
	for _, p := range parts {
		sum += snap.Get(p)
	}
	if diff := math.Abs(snap.Get(total) - sum); diff > tol {
		v.Failf("%s: conservation broken: %s = %v but Σ%v = %v",
			subject, total, snap.Get(total), parts, sum)
	}
}

// CheckZero asserts an instantaneous reading drained to zero (e.g. a
// runtime's inflight backlog after WaitIdle).
func (v *Verifier) CheckZero(subject, what string, value int64) {
	if value != 0 {
		v.Failf("%s: %s = %d, want 0", subject, what, value)
	}
}

// CheckSpanBalance asserts the trace's PhaseBegin/PhaseEnd events pair up:
// at most allowedOpen spans may remain open (a mesh trace legitimately
// leaves one open span per failover — the dead node never closes its lane),
// and an end without a begin is always a violation.
func (v *Verifier) CheckSpanBalance(subject string, events []trace.Event, allowedOpen int) {
	begins, ends := 0, 0
	for _, e := range events {
		switch e.Kind {
		case trace.PhaseBegin:
			begins++
		case trace.PhaseEnd:
			ends++
		}
	}
	if ends > begins {
		v.Failf("%s: trace closed more spans than it opened: %d begins, %d ends", subject, begins, ends)
	}
	if open := begins - ends; open > allowedOpen {
		v.Failf("%s: %d trace spans left open (allowed %d): %d begins, %d ends",
			subject, open, allowedOpen, begins, ends)
	}
}

// Ledger is the client-side idempotency ledger of one scenario: every
// admitted job must reach exactly one terminal state — zero lost, zero
// duplicated — whatever the mesh did to place it.
type Ledger struct {
	mu       sync.Mutex
	terminal map[string]string // job id → terminal state
	order    []string
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{terminal: make(map[string]string)}
}

// Admitted records a job the cluster accepted. A duplicate id is itself a
// violation (two admissions handing out the same identity), flagged at
// Verify time.
func (l *Ledger) Admitted(id string) {
	l.mu.Lock()
	l.order = append(l.order, id)
	l.mu.Unlock()
}

// Terminal records the terminal state observed for a job. Conflicting
// observations (done then failed) are flagged at Verify time.
func (l *Ledger) Terminal(id, state string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.terminal[id]; ok && prev != state {
		l.terminal[id] = prev + "+" + state // conflict marker
		return
	}
	l.terminal[id] = state
}

// Len returns the number of admitted jobs.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}

// States returns how many admitted jobs ended in each terminal state.
func (l *Ledger) States() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int)
	for _, id := range l.order {
		out[l.terminal[id]]++
	}
	return out
}

// Verify asserts the ledger's invariants on v: unique admissions, no
// admitted job without a terminal state (lost), no conflicting terminal
// states (duplicated/diverged).
func (l *Ledger) Verify(v *Verifier, subject string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[string]bool, len(l.order))
	for _, id := range l.order {
		if seen[id] {
			v.Failf("%s: job id %s admitted twice", subject, id)
			continue
		}
		seen[id] = true
		state, ok := l.terminal[id]
		switch {
		case !ok:
			v.Failf("%s: job %s lost: admitted but never reached a terminal state", subject, id)
		case state != "done" && state != "failed" && state != "cancelled":
			v.Failf("%s: job %s terminal state %q (conflicting or non-terminal)", subject, id, state)
		}
	}
}
