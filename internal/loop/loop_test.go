package loop

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskgrain/internal/counters"
)

// TestStopTwiceAndConcurrently is the Close-then-Kill case: two owners stop
// the same loop, one after the other and several at once, and none panics
// or returns before the loop has exited.
func TestStopTwiceAndConcurrently(t *testing.T) {
	l := NewMeter("t").Every(time.Millisecond, func() {})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); l.Stop() }()
	}
	wg.Wait()
	l.Stop()
}

// TestStopBeforeAnyRun stops a loop whose first tick is an hour away, and a
// nil loop (an owner that never started one): both return at once. Stop
// waits for a run in progress, so nothing having run also shows that Every
// does not run fn immediately.
func TestStopBeforeAnyRun(t *testing.T) {
	m := NewMeter("t")
	reg := counters.NewRegistry()
	m.Register(reg)
	ran := false
	m.Every(time.Hour, func() { ran = true }).Stop()
	if runs, _ := reg.Value("/loops{t}/count/runs"); ran || runs != 0 {
		t.Fatalf("ran = %v, runs = %v", ran, runs)
	}
	var never *Loop
	never.Stop()
}

// TestStopWaitsForRunInProgress: Stop called while fn is blocked returns
// only after fn has finished.
func TestStopWaitsForRunInProgress(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	var once sync.Once
	l := NewMeter("t").Every(time.Millisecond, func() {
		once.Do(func() {
			close(entered)
			<-release
			finished.Store(true)
		})
	})
	<-entered
	time.AfterFunc(20*time.Millisecond, func() { close(release) })
	l.Stop()
	if !finished.Load() {
		t.Fatal("Stop returned while a run was still in progress")
	}
}

// TestNoRunAfterStop: fn writes a plain variable the test reads after Stop,
// so under -race any run after Stop is a reported data race as well as a
// changed count.
func TestNoRunAfterStop(t *testing.T) {
	runs := 0
	ticked := make(chan struct{}, 1)
	l := NewMeter("t").Every(time.Millisecond, func() {
		runs++
		select {
		case ticked <- struct{}{}:
		default:
		}
	})
	<-ticked
	l.Stop()
	after := runs
	<-time.After(10 * time.Millisecond)
	if runs != after {
		t.Fatalf("fn ran after Stop: %d -> %d", after, runs)
	}
}

// TestCountersAdvance: every completed run adds one to runs and its duration
// to busy, loops sharing a meter add into one pair, and the pair registers
// under /loops{<name>}/.
func TestCountersAdvance(t *testing.T) {
	const work = 200 * time.Microsecond
	m := NewMeter("probe")
	reg := counters.NewRegistry()
	m.Register(reg)
	var runs atomic.Int64
	fn := func() {
		for start := time.Now(); time.Since(start) < work; {
		}
		runs.Add(1)
	}
	a, b := m.Every(time.Millisecond, fn), m.Every(time.Millisecond, fn)
	deadline := time.After(5 * time.Second)
	for runs.Load() < 6 {
		select {
		case <-deadline:
			t.Fatalf("only %d runs", runs.Load())
		case <-time.After(time.Millisecond):
		}
	}
	a.Stop()
	b.Stop()
	snap := reg.Snapshot()
	got, busy := snap.Get("/loops{probe}/count/runs"), snap.Get("/loops{probe}/time/busy")
	if got != float64(runs.Load()) {
		t.Fatalf("runs counter = %v, fn ran %d times", got, runs.Load())
	}
	if floor := got * float64(work); busy < floor {
		t.Fatalf("busy = %vns < %vns", busy, floor)
	}
}

// TestNoPrivateTickers keeps the serving stack on this package: a periodic
// loop in telemetry, journal, mesh or taskserve must start through
// Meter.Every, not a hand-rolled ticker with its own stop path.
func TestNoPrivateTickers(t *testing.T) {
	for _, pkg := range []string{"telemetry", "journal", "mesh", "taskserve"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources (%v)", pkg, err)
		}
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "time.NewTicker") {
				t.Errorf("%s calls time.NewTicker; start the loop with loop.Meter.Every", f)
			}
		}
	}
}
