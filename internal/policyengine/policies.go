package policyengine

import (
	"fmt"
	"sort"
	"time"

	"taskgrain/internal/telemetry"
)

// WatchdogPolicy closes the loop the telemetry watchdog used to dead-end:
// every engine sample reaches the watchdog as a Reading — the interval
// idle-rate, task count and length the engine just derived, the figures
// admission judges too, and whether tasks were on board — and while the
// alert is active its verdict (the paper's two U-curve walls, disambiguated
// by the task-flow floor) becomes per-kind grain Actions: grow doubles,
// shrink halves. Hysteresis comes from the watchdog itself — the alert only
// fires after a full window above HighIdle — plus one watchdog window
// between emitted moves, so one sustained alert cannot multiply the grain
// once per sampling interval. Guardrails (clamping to each controller's
// bounds) are applied at actuation.
type WatchdogPolicy struct {
	// Watchdog is the alert state machine the samples feed (required).
	Watchdog *telemetry.Watchdog

	lastFire time.Time
}

// Name implements Policy.
func (w *WatchdogPolicy) Name() string { return "watchdog" }

// Evaluate implements Policy.
func (w *WatchdogPolicy) Evaluate(s Sample) []Action {
	alert := w.Watchdog.Observe(telemetry.Reading{
		At:       s.At,
		IdleRate: s.IdleRate,
		Tasks:    s.Tasks,
		Elapsed:  s.Elapsed,
		Busy:     s.Inflight > 0,
	})
	if !alert.Active || len(s.Grains) == 0 {
		return nil
	}
	if !w.lastFire.IsZero() && s.At.Sub(w.lastFire) < w.Watchdog.Config().Window {
		return nil
	}
	kinds := make([]string, 0, len(s.Grains))
	for k := range s.Grains {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var acts []Action
	for _, kind := range kinds {
		cur := s.Grains[kind]
		if cur < 1 {
			continue
		}
		var next int
		switch alert.Suggestion {
		case telemetry.SuggestGrowGrain:
			next = cur * 2
		case telemetry.SuggestShrinkGrain:
			next = max(cur/2, 1)
		default:
			continue
		}
		if next == cur {
			continue
		}
		acts = append(acts, Action{
			SetGrain:  next,
			GrainKind: kind,
			Note: fmt.Sprintf("watchdog: %s %s %d -> %d (%s, idle %.0f%%)",
				alert.Suggestion, kind, cur, next, alert.Wall, alert.IdleRate*100),
		})
	}
	if len(acts) > 0 {
		w.lastFire = s.At
	}
	return acts
}

// ThrottleConfig parameterizes ThrottlePolicy.
type ThrottleConfig struct {
	// HighIdle triggers throttling down when exceeded (default 0.60).
	HighIdle float64
	// LowIdle triggers unthrottling when undercut (default 0.20).
	LowIdle float64
	// MinWorkers floors the throttle (default 1).
	MinWorkers int
	// Step is how many workers each adjustment adds or removes (default 1).
	Step int
}

func (c ThrottleConfig) withDefaults() ThrottleConfig {
	if c.HighIdle == 0 {
		c.HighIdle = 0.60
	}
	if c.LowIdle == 0 {
		c.LowIdle = 0.20
	}
	if c.MinWorkers < 1 {
		c.MinWorkers = 1
	}
	if c.Step < 1 {
		c.Step = 1
	}
	return c
}

// Validate reports the first problem with the configuration, or nil.
func (c ThrottleConfig) Validate() error {
	d := c.withDefaults()
	if d.LowIdle >= d.HighIdle {
		return fmt.Errorf("policyengine: LowIdle %v >= HighIdle %v", d.LowIdle, d.HighIdle)
	}
	if d.HighIdle >= 1 {
		return fmt.Errorf("policyengine: HighIdle %v >= 1", d.HighIdle)
	}
	return nil
}

// ThrottlePolicy is Porterfield-style introspective worker throttling: when
// the interval idle-rate shows workers mostly burning cycles looking for
// work (starvation or contention), it parks workers; when the runtime is
// busy again, it releases them. The paper reports this scheduler was
// integrated with HPX and proposes driving it with these metrics (Sec. V,
// VI).
type ThrottlePolicy struct {
	Config ThrottleConfig
}

// Name implements Policy.
func (t *ThrottlePolicy) Name() string { return "throttle" }

// Evaluate implements Policy.
func (t *ThrottlePolicy) Evaluate(s Sample) []Action {
	c := t.Config.withDefaults()
	switch {
	case s.IdleRate > c.HighIdle && s.ActiveWorkers > c.MinWorkers:
		next := s.ActiveWorkers - c.Step
		if next < c.MinWorkers {
			next = c.MinWorkers
		}
		return []Action{{
			SetActiveWorkers: next,
			Note: fmt.Sprintf("throttle: %d -> %d workers (idle %.0f%% > %.0f%%)",
				s.ActiveWorkers, next, s.IdleRate*100, c.HighIdle*100),
		}}
	case s.IdleRate < c.LowIdle && s.ActiveWorkers < s.MaxWorkers:
		next := s.ActiveWorkers + c.Step
		if next > s.MaxWorkers {
			next = s.MaxWorkers
		}
		return []Action{{
			SetActiveWorkers: next,
			Note: fmt.Sprintf("throttle: %d -> %d workers (idle %.0f%% < %.0f%%)",
				s.ActiveWorkers, next, s.IdleRate*100, c.LowIdle*100),
		}}
	}
	return nil
}
