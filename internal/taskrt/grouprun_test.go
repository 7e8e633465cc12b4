package taskrt_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"taskgrain/internal/future"
	"taskgrain/internal/taskrt"
)

// TestGroupRunReuseRace runs many waves through one group, so every wave
// reuses the records of the one before it, and mixes in tasks that panic
// and tasks that suspend on a future — resumed by a worker or by a plain
// goroutine, and panicking again in the resumed phase every other wave.
// Each wave must run on the records of the first, Run must count every
// panic exactly, and a task's first phase must report Phases() == 1 however
// often its record ran before.
func TestGroupRunReuseRace(t *testing.T) {
	const waves, n = 1000, 16
	rt := taskrt.New(taskrt.WithWorkers(2), taskrt.WithPanicHandler(func(*taskrt.Task, any) {}))
	rt.Start()
	defer rt.Shutdown()

	var ran, resumed atomic.Int64
	check := func(c *taskrt.Context, phase int64) {
		if got := c.Task().Phases(); got != phase {
			t.Errorf("task %d: phase %d reports Phases() = %d", c.Task().ID(), phase, got)
		}
		if got := c.Task().State(); got != taskrt.Active {
			t.Errorf("task %d: running in state %v", c.Task().ID(), got)
		}
	}
	fns := make([]func(*taskrt.Context), n)
	records := make([]*taskrt.Task, n)
	var wave int
	for i := range fns {
		switch i % 4 {
		case 0:
			fns[i] = func(c *taskrt.Context) { check(c, 1); ran.Add(1); panic(i) }
		case 1:
			fns[i] = func(c *taskrt.Context) {
				check(c, 1)
				ran.Add(1)
				if wave == 0 {
					records[i] = c.Task()
				} else if records[i] != c.Task() {
					t.Errorf("wave %d: fn %d runs on a new task record", wave, i)
				}
			}
		case 2: // resumed by the worker that runs the setting task
			fns[i] = func(c *taskrt.Context) {
				check(c, 1)
				ran.Add(1)
				p, f := future.NewPromise[int]()
				future.Await(c, f, func(c2 *taskrt.Context, v int) {
					check(c2, 2)
					resumed.Add(1)
					if v != i {
						t.Errorf("task %d resumed with %d", i, v)
					}
				})
				rt.Spawn(func(*taskrt.Context) { p.Set(i) })
			}
		case 3: // resumed by a goroutine, racing the end of the phase
			fns[i] = func(c *taskrt.Context) {
				check(c, 1)
				ran.Add(1)
				p, f := future.NewPromise[int]()
				future.Await(c, f, func(c2 *taskrt.Context, _ int) {
					check(c2, 2)
					resumed.Add(1)
					if wave%2 == 1 {
						panic(fmt.Sprintf("resumed %d", i))
					}
				})
				go p.Set(i)
			}
		}
	}

	g := rt.NewGroup()
	wantPanics := 0
	for wave = 0; wave < waves; wave++ {
		wantPanics += n / 4
		if wave%2 == 1 {
			wantPanics += n / 4
		}
		if got := g.Run(fns); got != wantPanics {
			t.Fatalf("wave %d: Run = %d panics, want %d", wave, got, wantPanics)
		}
	}
	if got, want := ran.Load(), int64(waves*n); got != want {
		t.Fatalf("%d first phases ran, want %d", got, want)
	}
	if got, want := resumed.Load(), int64(waves*n/2); got != want {
		t.Fatalf("%d resumed phases ran, want %d", got, want)
	}
}
