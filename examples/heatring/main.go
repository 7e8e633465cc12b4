// Heatring: the paper's benchmark as an application — 1D heat diffusion on
// a ring, futurized into one dataflow task per partition-timestep, with the
// granularity metrics printed afterwards. Vary -partition to see the
// U-shaped execution-time curve of Fig. 3 on your own machine.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"taskgrain/internal/core"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
)

func main() {
	points := flag.Int("points", 2_000_000, "grid points on the ring")
	partition := flag.Int("partition", 20_000, "grid points per partition (the grain knob)")
	steps := flag.Int("steps", 20, "diffusion time steps")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
	flag.Parse()

	cfg := stencil.Config{
		TotalPoints:        *points,
		PointsPerPartition: *partition,
		TimeSteps:          *steps,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Println("heatring:", err)
		return
	}

	rt := taskrt.New(taskrt.WithWorkers(*workers))
	rt.Start()
	start := time.Now()
	sol, err := stencil.Run(rt, cfg)
	elapsed := time.Since(start)
	snap := rt.Counters().Snapshot()
	rt.Shutdown()
	if err != nil {
		fmt.Println("heatring:", err)
		return
	}

	raw := core.RawRunFromSnapshot(snap, *workers, elapsed)
	fmt.Printf("ring of %d points, %d partitions of %d, %d steps, %d workers\n",
		cfg.TotalPoints, cfg.Partitions(), cfg.PointsPerPartition, cfg.TimeSteps, *workers)
	fmt.Printf("execution time      %v\n", elapsed.Round(time.Microsecond))
	fmt.Printf("total heat          %.6g (conserved on the ring)\n", sol.Sum())
	fmt.Printf("tasks               %.0f\n", raw.Tasks)
	fmt.Printf("idle-rate           %.1f%%   (Eq. 1 — task-management share)\n", raw.IdleRate()*100)
	fmt.Printf("task duration t_d   %.1fµs  (Eq. 2)\n", raw.TaskDurationNs()/1000)
	fmt.Printf("task overhead t_o   %.2fµs  (Eq. 3)\n", raw.TaskOverheadNs()/1000)
	fmt.Printf("TM overhead/core    %.4fs   (Eq. 4)\n", raw.TMOverheadPerCoreNs()/1e9)
	fmt.Printf("pending queue       %.0f accesses / %.0f misses\n",
		raw.PendingAccesses, raw.PendingMisses)
	fmt.Println("\ntry: -partition 200 (fine-grain wall) or -partition", *points, "(starvation wall)")
}
