// Adaptivegrain: the paper's future-work goal in action — a live runtime
// whose task grain is adapted between rounds using interval counter
// readings (Sec. II-A: the metrics "can be calculated over any interval of
// interest") and the adaptive tuner. Each round runs a slice of the heat
// benchmark at the current grain; the tuner reads the interval idle-rate
// and parallel slack and picks the next grain.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"taskgrain/internal/adaptive"
	"taskgrain/internal/counters"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
)

func main() {
	points := flag.Int("points", 500_000, "grid points per round")
	steps := flag.Int("steps", 8, "time steps per round")
	start := flag.Int("start", 200, "starting partition size (200 = deep in the fine-grain wall)")
	rounds := flag.Int("rounds", 12, "maximum tuning rounds")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
	tolerance := flag.Float64("tolerance", 0.08, "idle-rate tolerance band")
	flag.Parse()

	tuner, err := adaptive.New(adaptive.Config{
		MinPartition: 100,
		MaxPartition: *points,
		HighIdle:     *tolerance,
	})
	if err != nil {
		fmt.Println("adaptivegrain:", err)
		return
	}

	rt := taskrt.New(taskrt.WithWorkers(*workers))
	rt.Start()
	defer rt.Shutdown()

	fmt.Printf("%-6s %-10s %-11s %-8s %-9s %-8s %s\n",
		"round", "partition", "exec", "idle%", "slack", "decision", "next")
	grain := *start
	for round := 1; round <= *rounds; round++ {
		cfg := stencil.Config{
			TotalPoints:        *points,
			PointsPerPartition: grain,
			TimeSteps:          *steps,
		}
		exec0, func0 := rt.LoopTotals()
		tasks0 := rt.TasksExecuted()
		t0 := time.Now()
		if _, err := stencil.Run(rt, cfg); err != nil {
			fmt.Println("adaptivegrain:", err)
			return
		}
		elapsed := time.Since(t0)
		exec1, func1 := rt.LoopTotals()

		// One stencil round spans steps+1 dependency generations
		// (initialization plus each time step).
		obs := adaptive.Observation{
			PartitionSize: grain,
			IdleRate:      counters.IdleRateOf(float64(exec1-exec0), float64(func1-func0)),
			Tasks:         float64(rt.TasksExecuted()-tasks0) / float64(cfg.TimeSteps+1),
			Cores:         *workers,
		}
		next, decision := tuner.Next(obs)
		fmt.Printf("%-6d %-10d %-11v %-8.1f %-9.0f %-8s %d\n",
			round, grain, elapsed.Round(time.Microsecond), obs.IdleRate*100, obs.Tasks, decision, next)
		if decision == adaptive.Keep {
			fmt.Printf("\nconverged: partition size %d is inside the tolerance band\n", grain)
			return
		}
		grain = next
	}
	fmt.Println("\nstopped without convergence (raise -rounds)")
}
