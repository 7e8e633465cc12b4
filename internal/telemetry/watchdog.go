package telemetry

import (
	"sync"
	"time"

	"taskgrain/internal/counters"
)

// Walls of the paper's U-curve a pinned idle-rate can indicate, and the
// grain direction that walks off each. The disambiguation is the task-flow
// floor the admission controller applies to the same intervals: a high
// idle-rate with real task flow means scheduling overhead dominates (tasks
// too small — grow the grain); a high idle-rate with almost no flow means
// the workers are starved (tasks too large or too few — shrink the grain
// to expose parallelism).
const (
	WallOverhead   = "overhead"   // left wall: grain too small
	WallStarvation = "starvation" // right wall: grain too large

	SuggestGrowGrain   = "grow-grain"
	SuggestShrinkGrain = "shrink-grain"
)

// WatchdogActive reads 1 while a registered watchdog's alert fires (see
// Register). The rest of the verdict sits next to it under
// /telemetry/watchdog/, and AlertFromSnapshot reads all of it back.
const WatchdogActive = "/telemetry/watchdog/active"

const (
	watchdogDirection = "/telemetry/watchdog/direction" // +1 grow-grain, -1 shrink-grain, 0 quiet
	watchdogIdleRate  = "/telemetry/watchdog/idle-rate" // window mean
	watchdogFlow      = "/telemetry/watchdog/flow"      // tasks/s over the window
	watchdogSamples   = "/telemetry/watchdog/samples"   // readings in the window
)

// Alert is the watchdog's current verdict for one subject.
type Alert struct {
	// Subject names what is being watched ("node 127.0.0.1:8081", or the
	// daemon itself).
	Subject string `json:"subject"`
	// Active reports whether the alert is currently firing.
	Active bool `json:"active"`
	// Since is when the alert started firing (zero when never fired).
	Since time.Time `json:"since,omitempty"`
	// ClearedAt is when the last firing ended (zero while active or never
	// fired).
	ClearedAt time.Time `json:"cleared_at,omitempty"`
	// IdleRate is the mean idle-rate over the evaluated window.
	IdleRate float64 `json:"idle_rate"`
	// FlowPerSec is the task throughput over the window: the tasks the
	// readings counted over the real length of their intervals.
	FlowPerSec float64 `json:"flow_per_sec"`
	// Wall says which wall of the U-curve the subject is pinned against
	// (WallOverhead or WallStarvation; empty when not firing).
	Wall string `json:"wall,omitempty"`
	// Suggestion is the grain direction that walks off the wall
	// (SuggestGrowGrain or SuggestShrinkGrain; empty when not firing).
	Suggestion string `json:"suggestion,omitempty"`
	// Samples is how many readings the verdict was computed from.
	Samples int `json:"samples"`
}

// Reading is one control interval as the policy engine derives it from two
// consecutive samples — the figures admission judges too: the interval's
// Eq. 1 idle-rate, the tasks that ran in it, its real length, and whether
// the runtime had tasks on board when it closed.
type Reading struct {
	At       time.Time
	IdleRate float64
	Tasks    float64
	Elapsed  time.Duration
	Busy     bool
}

// WatchdogConfig parameterizes a Watchdog.
type WatchdogConfig struct {
	// Subject labels the alert.
	Subject string
	// HighIdle is the tolerance threshold (the paper's ~30%; default 0.30).
	HighIdle float64
	// Window is the sliding window the idle-rate must be pinned for before
	// the alert fires (default 5s).
	Window time.Duration
	// MinSamples is the least readings a window must hold to be judged at
	// all (default 3) — a freshly started daemon never fires off one
	// reading.
	MinSamples int
	// FlowFloor is the tasks-per-second floor below which a pinned
	// idle-rate reads as starvation rather than overhead (default 1).
	FlowFloor float64
	// Logf, when set, receives one line per alert transition.
	Logf func(format string, args ...any)
}

// Watchdog evaluates the idle-rate tolerance threshold over a sliding
// window of readings: it fires when every reading in the window is above
// HighIdle while tasks were on board — a node pinned against a wall of the
// U-curve, not a transient — and clears as soon as one reading returns
// inside tolerance (e.g. after a regrain) or the work drains. The policy
// engine drives Observe once per sample; Current is safe to serve
// concurrently.
type Watchdog struct {
	cfg WatchdogConfig

	mu     sync.Mutex
	window []Reading // oldest first, none older than cfg.Window before the newest
	alert  Alert
}

// NewWatchdog builds a watchdog; zero config fields get defaults.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.HighIdle <= 0 {
		cfg.HighIdle = 0.30
	}
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Second
	}
	if cfg.MinSamples < 2 {
		cfg.MinSamples = 3
	}
	if cfg.FlowFloor <= 0 {
		cfg.FlowFloor = 1
	}
	return &Watchdog{cfg: cfg, alert: Alert{Subject: cfg.Subject}}
}

// Config returns the effective (defaulted) configuration, so control-plane
// policies can space their moves by the watchdog's window.
func (w *Watchdog) Config() WatchdogConfig { return w.cfg }

// Current returns the latest verdict.
func (w *Watchdog) Current() Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.alert
}

// Observe adds one reading, drops the readings older than the window
// before it, re-judges the subject and returns the updated verdict.
// Transitions (fire, clear) are logged via cfg.Logf.
func (w *Watchdog) Observe(r Reading) Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	cutoff := r.At.Add(-w.cfg.Window)
	live := w.window[:0]
	for _, old := range w.window {
		if !old.At.Before(cutoff) {
			live = append(live, old)
		}
	}
	w.window = append(live, r)
	w.alert.Samples = len(w.window)
	if len(w.window) < w.cfg.MinSamples {
		// Not enough history to judge; keep the previous verdict.
		return w.alert
	}

	var idle, tasks float64
	var elapsed time.Duration
	pinned, busy := true, false
	for _, rd := range w.window {
		idle += rd.IdleRate
		tasks += rd.Tasks
		elapsed += rd.Elapsed
		if rd.IdleRate <= w.cfg.HighIdle {
			pinned = false
		}
		busy = busy || rd.Busy
	}
	// Nothing on board all window is idle capacity, not a wall: treated as
	// in-tolerance so an active alert clears when the work drains.
	pinned = pinned && busy
	w.alert.IdleRate = idle / float64(len(w.window))
	if elapsed > 0 {
		w.alert.FlowPerSec = tasks / elapsed.Seconds()
	}

	switch {
	case pinned && !w.alert.Active:
		w.alert.Active = true
		w.alert.Since = r.At
		w.alert.ClearedAt = time.Time{}
		w.classifyLocked()
		w.logf("telemetry: watchdog ALERT %s: idle-rate %.1f%% > %.0f%% for a full %v window, flow %.1f tasks/s → %s wall, suggest %s",
			w.cfg.Subject, w.alert.IdleRate*100, w.cfg.HighIdle*100, w.cfg.Window,
			w.alert.FlowPerSec, w.alert.Wall, w.alert.Suggestion)
	case pinned && w.alert.Active:
		// Still firing; refresh the wall verdict — flow can change while
		// pinned (e.g. a starved node picking up small tasks).
		w.classifyLocked()
	case !pinned && w.alert.Active:
		w.alert.Active = false
		w.alert.ClearedAt = r.At
		w.alert.Wall, w.alert.Suggestion = "", ""
		w.logf("telemetry: watchdog cleared %s: idle-rate back inside %.0f%% tolerance (window mean %.1f%%)",
			w.cfg.Subject, w.cfg.HighIdle*100, w.alert.IdleRate*100)
	}
	return w.alert
}

// classifyLocked sets the wall and grain suggestion from the current flow
// reading. Caller holds w.mu.
func (w *Watchdog) classifyLocked() {
	if w.alert.FlowPerSec < w.cfg.FlowFloor {
		w.alert.Wall = WallStarvation
		w.alert.Suggestion = SuggestShrinkGrain
	} else {
		w.alert.Wall = WallOverhead
		w.alert.Suggestion = SuggestGrowGrain
	}
}

func (w *Watchdog) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Register exports the current verdict on reg as the /telemetry/watchdog/
// counters: /metrics carries them, and a mesh gateway relays them from its
// heartbeat snapshot (AlertFromSnapshot) instead of judging the node again.
func (w *Watchdog) Register(reg *counters.Registry) {
	gauge := func(name string, read func(Alert) float64) {
		reg.MustRegister(counters.NewDerived(name, func() float64 { return read(w.Current()) }))
	}
	gauge(WatchdogActive, func(a Alert) float64 {
		if a.Active {
			return 1
		}
		return 0
	})
	gauge(watchdogDirection, func(a Alert) float64 {
		switch a.Suggestion {
		case SuggestGrowGrain:
			return 1
		case SuggestShrinkGrain:
			return -1
		}
		return 0
	})
	gauge(watchdogIdleRate, func(a Alert) float64 { return a.IdleRate })
	gauge(watchdogFlow, func(a Alert) float64 { return a.FlowPerSec })
	gauge(watchdogSamples, func(a Alert) float64 { return float64(a.Samples) })
}

// AlertFromSnapshot rebuilds, under subject, the verdict a watchdog exported
// through Register from a snapshot of its registry. The counters carry the
// verdict, not its history: Since and ClearedAt stay zero.
func AlertFromSnapshot(subject string, snap counters.Snapshot) Alert {
	a := Alert{
		Subject:    subject,
		Active:     snap.Get(WatchdogActive) > 0,
		IdleRate:   snap.Get(watchdogIdleRate),
		FlowPerSec: snap.Get(watchdogFlow),
		Samples:    int(snap.Get(watchdogSamples)),
	}
	switch d := snap.Get(watchdogDirection); {
	case d > 0:
		a.Wall, a.Suggestion = WallOverhead, SuggestGrowGrain
	case d < 0:
		a.Wall, a.Suggestion = WallStarvation, SuggestShrinkGrain
	}
	return a
}
