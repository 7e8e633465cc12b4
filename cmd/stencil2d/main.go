// Command stencil2d runs a single configuration of the 2D five-point heat
// benchmark — natively on this host or on a simulated platform — and prints
// the granularity metrics for that run. The grain knob is the block size.
//
// Usage:
//
//	stencil2d [flags]
//
//	-engine native|sim    execution engine (default native)
//	-platform <name>      simulated platform (sim engine; default haswell)
//	-width, -height <n>   torus dimensions (default 1000x1000)
//	-block <n>            square block side (default 100)
//	-steps <n>            time steps (default 10)
//	-cores <n>            worker threads (0 = default)
//	-verify               check the native result against the reference
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"taskgrain/internal/core"
	"taskgrain/internal/costmodel"
	"taskgrain/internal/sim"
	"taskgrain/internal/stencil2d"
	"taskgrain/internal/taskrt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command against the given flag arguments and streams;
// split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stencil2d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engine := fs.String("engine", "native", "native or sim")
	platform := fs.String("platform", "haswell", "simulated platform (sim engine)")
	width := fs.Int("width", 1000, "torus width")
	height := fs.Int("height", 1000, "torus height")
	block := fs.Int("block", 100, "square block side (grain knob)")
	steps := fs.Int("steps", 10, "time steps")
	cores := fs.Int("cores", 0, "worker threads (0 = default)")
	verify := fs.Bool("verify", false, "verify against the reference (native)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := stencil2d.Config{
		Width: *width, Height: *height,
		BlockWidth: *block, BlockHeight: *block,
		TimeSteps: *steps,
	}
	if err := cfg.Validate(); err != nil {
		return fail(stderr, err)
	}

	var err error
	switch *engine {
	case "native":
		err = runNative(stdout, cfg, *cores, *verify)
	case "sim":
		err = runSim(stdout, cfg, *platform, *cores)
	default:
		err = fmt.Errorf("unknown engine %q (native, sim)", *engine)
	}
	if err != nil {
		return fail(stderr, err)
	}
	return 0
}

// fail prints the error and returns a non-zero exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "stencil2d:", err)
	return 1
}

func runNative(stdout io.Writer, cfg stencil2d.Config, cores int, verify bool) error {
	if cores == 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	rt := taskrt.New(taskrt.WithWorkers(cores))
	rt.Start()
	start := time.Now()
	sol, err := stencil2d.Run(rt, cfg)
	elapsed := time.Since(start)
	snap := rt.Counters().Snapshot()
	rt.Shutdown()
	if err != nil {
		return err
	}
	raw := core.RawRunFromSnapshot(snap, cores, elapsed)
	fmt.Fprintf(stdout, "engine           native (%d workers)\n", cores)
	printRun(stdout, cfg, elapsed.Seconds(), raw.IdleRate(), raw.TaskDurationNs(), raw.Tasks)
	fmt.Fprintf(stdout, "total heat       %.6g\n", sol.Sum())
	if verify {
		want, err := stencil2d.Reference(cfg)
		if err != nil {
			return err
		}
		got := sol.Flatten()
		worst := 0.0
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		fmt.Fprintf(stdout, "verify           max |Δ| vs reference = %.3g\n", worst)
		if worst > 1e-9 {
			return fmt.Errorf("verification FAILED (max deviation %g)", worst)
		}
	}
	return nil
}

func runSim(stdout io.Writer, cfg stencil2d.Config, platform string, cores int) error {
	prof, err := costmodel.ByName(platform)
	if err != nil {
		return err
	}
	wl, err := stencil2d.NewSimWorkload(cfg)
	if err != nil {
		return err
	}
	r, err := sim.Run(sim.Config{Profile: prof, Cores: cores}, wl)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "engine           sim (%s, %d cores)\n", prof.Name, r.Cores)
	printRun(stdout, cfg, r.MakespanNs/1e9, r.IdleRate(), r.AvgTaskDurationNs(), float64(r.Tasks))
	fmt.Fprintf(stdout, "pending q        %d accesses, %d misses\n", r.PendingAccesses, r.PendingMisses)
	fmt.Fprintf(stdout, "energy           %.2f J\n", r.EnergyJ)
	return nil
}

func printRun(w io.Writer, cfg stencil2d.Config, execS, idle, tdNs, tasks float64) {
	fmt.Fprintf(w, "torus            %dx%d\n", cfg.Width, cfg.Height)
	fmt.Fprintf(w, "block            %dx%d (%d blocks, %d cells/task)\n",
		cfg.BlockWidth, cfg.BlockHeight, cfg.Blocks(), cfg.BlockWidth*cfg.BlockHeight)
	fmt.Fprintf(w, "time steps       %d\n", cfg.TimeSteps)
	fmt.Fprintf(w, "execution time   %.4f s\n", execS)
	fmt.Fprintf(w, "idle-rate        %.1f %%\n", idle*100)
	fmt.Fprintf(w, "task duration    %.2f µs\n", tdNs/1000)
	fmt.Fprintf(w, "tasks executed   %.0f\n", tasks)
}
