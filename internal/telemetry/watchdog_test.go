package telemetry

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"taskgrain/internal/counters"
)

// at is sec seconds past a fixed epoch.
func at(sec int) time.Time { return time.Unix(1_000_000, 0).Add(time.Duration(sec) * time.Second) }

// feed hands w one reading a second from startSec on, with tasks on board
// throughout: each pair is the interval's idle-rate and the tasks that ran
// in it. It returns the verdict after the last reading.
func feed(w *Watchdog, startSec int, readings [][2]float64) Alert {
	var a Alert
	for i, rd := range readings {
		a = w.Observe(Reading{At: at(startSec + i), IdleRate: rd[0], Tasks: rd[1], Elapsed: time.Second, Busy: true})
	}
	return a
}

func newTestWatchdog(logs *[]string) *Watchdog {
	return NewWatchdog(WatchdogConfig{
		Subject:    "node test:1",
		HighIdle:   0.30,
		Window:     5 * time.Second,
		MinSamples: 3,
		FlowFloor:  10, // tasks/s
		Logf: func(format string, args ...any) {
			*logs = append(*logs, fmt.Sprintf(format, args...))
		},
	})
}

func TestWatchdogFiresAfterFullWindowAndClears(t *testing.T) {
	var logs []string
	w := newTestWatchdog(&logs)

	// Healthy readings: idle well under the threshold.
	if a := feed(w, 0, [][2]float64{{0.05, 1000}, {0.08, 1000}, {0.06, 1000}}); a.Active {
		t.Fatalf("fired on healthy window: %+v", a)
	}

	// One bad reading inside an otherwise-healthy window must NOT fire:
	// the threshold has to hold for the full window.
	if a := feed(w, 3, [][2]float64{{0.55, 1000}}); a.Active {
		t.Fatalf("fired on a transient: %+v", a)
	}

	// Now pin the idle-rate above tolerance for a whole window with high
	// task flow: overhead wall, suggestion is to grow the grain. The
	// readings after the one that fires keep it active without re-logging.
	a := feed(w, 10, [][2]float64{{0.45, 10000}, {0.52, 10000}, {0.48, 10000}, {0.50, 10000}, {0.47, 10000}, {0.49, 10000}})
	if !a.Active {
		t.Fatalf("did not fire on pinned window: %+v", a)
	}
	if a.Wall != WallOverhead || a.Suggestion != SuggestGrowGrain {
		t.Fatalf("wall = %q suggestion = %q, want overhead/grow-grain (flow %.1f/s)", a.Wall, a.Suggestion, a.FlowPerSec)
	}
	if a.IdleRate < 0.30 {
		t.Fatalf("reported window idle-rate %.2f below threshold", a.IdleRate)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "ALERT") {
		t.Fatalf("logs = %v", logs)
	}

	// After a regrain the idle-rate returns inside tolerance: the alert
	// clears on the first healthy reading.
	a = feed(w, 16, [][2]float64{{0.10, 1000}, {0.09, 1000}, {0.08, 1000}})
	if a.Active {
		t.Fatalf("did not clear: %+v", a)
	}
	if !a.ClearedAt.Equal(at(16)) || a.Wall != "" || a.Suggestion != "" {
		t.Fatalf("cleared alert kept a stale verdict or missed the clearing reading: %+v", a)
	}
	if len(logs) != 2 || !strings.Contains(logs[1], "cleared") {
		t.Fatalf("logs = %v", logs)
	}
}

func TestWatchdogStarvationWall(t *testing.T) {
	var logs []string
	w := newTestWatchdog(&logs)
	// Pinned idle with nearly no task flow: the right wall — workers are
	// starved, the grain is too large; suggest shrinking it.
	a := feed(w, 0, [][2]float64{{0.60, 5}, {0.65, 5}, {0.62, 5}, {0.64, 5}, {0.61, 5}, {0.63, 5}})
	if !a.Active {
		t.Fatalf("did not fire: %+v", a)
	}
	if a.Wall != WallStarvation || a.Suggestion != SuggestShrinkGrain {
		t.Fatalf("wall = %q suggestion = %q (flow %.1f/s), want starvation/shrink-grain", a.Wall, a.Suggestion, a.FlowPerSec)
	}
}

// TestWatchdogBusyGate: a subject with no tasks on board all window never
// alerts — an idle runtime's 100% idle-rate is capacity, not a U-curve wall
// — and an active alert clears when the work drains.
func TestWatchdogBusyGate(t *testing.T) {
	var logs []string
	w := newTestWatchdog(&logs)
	observe := func(from, to int, idle float64, busy bool) Alert {
		var a Alert
		for sec := from; sec < to; sec++ {
			a = w.Observe(Reading{At: at(sec), IdleRate: idle, Elapsed: time.Second, Busy: busy})
		}
		return a
	}

	// A freshly started, completely idle daemon: idle-rate pinned at 1.0
	// for a full window, nothing on board. Must stay quiet.
	if a := observe(0, 6, 1.0, false); a.Active {
		t.Fatalf("fired on an empty runtime: %+v", a)
	}

	// The same pinned idle-rate with one giant task on board and none
	// starting is the real starvation wall.
	if a := observe(10, 16, 0.9, true); !a.Active || a.Wall != WallStarvation {
		t.Fatalf("busy starved window did not fire: %+v", a)
	}

	// Work drains away while the idle-rate stays high: the alert clears —
	// the wall is gone along with the work.
	if a := observe(20, 26, 1.0, false); a.Active {
		t.Fatalf("did not clear after the work drained: %+v", a)
	}
	if len(logs) != 2 {
		t.Fatalf("transitions logged = %v", logs)
	}
}

func TestWatchdogNeedsMinSamples(t *testing.T) {
	var logs []string
	w := newTestWatchdog(&logs)
	// Two pinned readings are not enough history to judge.
	if a := feed(w, 0, [][2]float64{{0.9, 10000}, {0.9, 10000}}); a.Active {
		t.Fatalf("fired on %d readings below MinSamples: %+v", a.Samples, a)
	}
}

func TestWatchdogCurrentConcurrent(t *testing.T) {
	var logs []string
	w := newTestWatchdog(&logs)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			feed(w, i, [][2]float64{{0.5, 1000}})
		}
	}()
	for i := 0; i < 100; i++ {
		_ = w.Current()
	}
	<-done
}

// TestWatchdogRefireAcrossRingWraparound: fire → clear → refire. The
// reading that cleared the alert holds it clear until the window has slid
// past it; the second firing is then a fresh transition — new Since,
// ClearedAt zeroed, a second ALERT log — not a stale continuation of the
// first.
func TestWatchdogRefireAcrossRingWraparound(t *testing.T) {
	var logs []string
	w := newTestWatchdog(&logs)

	// Pinned above tolerance: fires on the reading that fills the window.
	a := feed(w, 0, [][2]float64{{0.60, 10000}, {0.62, 10000}, {0.61, 10000}})
	if !a.Active {
		t.Fatalf("did not fire on pinned window: %+v", a)
	}
	firstSince := a.Since
	if !firstSince.Equal(at(2)) {
		t.Fatalf("Since = %v, want the firing reading's stamp", firstSince)
	}

	// One healthy reading (a regrain landing): clears.
	a = feed(w, 3, [][2]float64{{0.10, 10000}})
	if a.Active {
		t.Fatalf("did not clear on in-tolerance reading: %+v", a)
	}
	if !a.ClearedAt.Equal(at(3)) {
		t.Fatalf("ClearedAt = %v, want the clearing reading's stamp", a.ClearedAt)
	}

	// Idle pins again. While the 5s window still holds the healthy t=3
	// reading the alert stays clear.
	if a = feed(w, 4, [][2]float64{{0.55, 10000}, {0.58, 10000}, {0.57, 10000}, {0.56, 10000}, {0.55, 10000}}); a.Active {
		t.Fatalf("refired with the clearing reading still in the window: %+v", a)
	}
	// At t=9 it has slid out: every reading left is above tolerance.
	a = feed(w, 9, [][2]float64{{0.56, 10000}})
	if !a.Active {
		t.Fatalf("did not refire once the window slid past the clearing reading: %+v", a)
	}
	if !a.Since.Equal(at(9)) || a.Since.Equal(firstSince) {
		t.Fatalf("refire Since = %v, want a fresh transition stamp (first was %v)", a.Since, firstSince)
	}
	if !a.ClearedAt.IsZero() {
		t.Fatalf("refire kept stale ClearedAt %v", a.ClearedAt)
	}
	if a.Wall != WallOverhead || a.Suggestion != SuggestGrowGrain {
		t.Fatalf("refire verdict: wall %q suggestion %q (flow %.1f/s)", a.Wall, a.Suggestion, a.FlowPerSec)
	}

	// Exactly three transitions: ALERT, cleared, ALERT.
	if len(logs) != 3 ||
		!strings.Contains(logs[0], "ALERT") ||
		!strings.Contains(logs[1], "cleared") ||
		!strings.Contains(logs[2], "ALERT") {
		t.Fatalf("transition logs = %v", logs)
	}
}

// TestWatchdogVerdictRoundTripsThroughCounters: the counters Register
// exports carry the whole verdict except its timestamps, so a gateway
// reading them off a node's snapshot (AlertFromSnapshot) relays what the
// node judged — quiet, on either wall, and cleared again.
func TestWatchdogVerdictRoundTripsThroughCounters(t *testing.T) {
	var logs []string
	w := newTestWatchdog(&logs)
	reg := counters.NewRegistry()
	w.Register(reg)
	check := func(stage string) {
		t.Helper()
		want := w.Current()
		want.Since, want.ClearedAt = time.Time{}, time.Time{}
		if got := AlertFromSnapshot(want.Subject, reg.Snapshot()); got != want {
			t.Fatalf("%s: relayed %+v, watchdog says %+v", stage, got, want)
		}
	}
	check("fresh")
	feed(w, 0, [][2]float64{{0.6, 10000}, {0.6, 10000}, {0.6, 10000}})
	check("overhead")
	feed(w, 3, [][2]float64{{0.1, 10000}})
	check("cleared")
	feed(w, 10, [][2]float64{{0.6, 1}, {0.6, 1}, {0.6, 1}})
	if !w.Current().Active || w.Current().Wall != WallStarvation {
		t.Fatalf("starvation stage did not fire: %+v", w.Current())
	}
	check("starvation")
}
