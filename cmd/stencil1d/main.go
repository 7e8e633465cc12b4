// Command stencil1d runs a single configuration of the HPX-Stencil
// benchmark — natively on this host or on the simulated platform of your
// choice — and prints every metric of the study for that run.
//
// Usage:
//
//	stencil1d [flags]
//
//	-engine native|sim      execution engine (default native)
//	-platform <name>        simulated platform (sim engine; default haswell)
//	-points <n>             total grid points (default 1000000)
//	-partition <n>          grid points per partition (default 10000)
//	-steps <n>              time steps (default 10)
//	-cores <n>              worker threads (default: host GOMAXPROCS / platform cores)
//	-policy <name>          priority-local-fifo | static-round-robin | work-stealing-lifo
//	-counters               dump the full counter registry (native engine)
//	-verify                 check the native result against the sequential reference
//	-trace <file>           write a Chrome trace-event JSON of the run
//	-introspect <addr>      serve the live counter registry over HTTP during
//	                        the run (native engine; e.g. 127.0.0.1:9090)
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"taskgrain/internal/core"
	"taskgrain/internal/costmodel"
	"taskgrain/internal/introspect"
	"taskgrain/internal/plot"
	"taskgrain/internal/sim"
	"taskgrain/internal/stencil"
	"taskgrain/internal/taskrt"
	"taskgrain/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the command against the given flag arguments and streams;
// split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stencil1d", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engine := fs.String("engine", "native", "native or sim")
	platform := fs.String("platform", "haswell", "simulated platform (sim engine)")
	points := fs.Int("points", 1_000_000, "total grid points")
	partition := fs.Int("partition", 10_000, "grid points per partition")
	steps := fs.Int("steps", 10, "time steps")
	cores := fs.Int("cores", 0, "worker threads (0 = default)")
	policy := fs.String("policy", "priority-local-fifo", "scheduling policy")
	dumpCounters := fs.Bool("counters", false, "dump the counter registry (native)")
	verify := fs.Bool("verify", false, "verify against the sequential reference (native)")
	traceFile := fs.String("trace", "", "write Chrome trace-event JSON to this file")
	introspectAddr := fs.String("introspect", "", "serve live counters over HTTP on this address (native)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var tracer *trace.Tracer
	if *traceFile != "" {
		tracer = trace.New(0)
	}

	cfg := stencil.Config{TotalPoints: *points, PointsPerPartition: *partition, TimeSteps: *steps}
	if err := cfg.Validate(); err != nil {
		return fail(stderr, err)
	}

	var err error
	switch *engine {
	case "native":
		err = runNative(stdout, cfg, *cores, *policy, *dumpCounters, *verify, tracer, *introspectAddr)
	case "sim":
		if *introspectAddr != "" {
			return fail(stderr, fmt.Errorf("-introspect requires the native engine"))
		}
		err = runSim(stdout, cfg, *platform, *cores, *policy, tracer)
	default:
		err = fmt.Errorf("unknown engine %q (native, sim)", *engine)
	}
	if err != nil {
		return fail(stderr, err)
	}
	if tracer != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fail(stderr, err)
		}
		if err := tracer.WriteChromeJSON(f); err != nil {
			return fail(stderr, err)
		}
		if err := f.Close(); err != nil {
			return fail(stderr, err)
		}
		// Adaptive bucket: ~60 buckets across the run regardless of scale.
		var maxTs int64
		for _, ev := range tracer.Events() {
			if ev.TsNs > maxTs {
				maxTs = ev.TsNs
			}
		}
		bucket := maxTs / 60
		if bucket < 1 {
			bucket = 1
		}
		if tl := tracer.Timeline(bucket); len(tl) > 1 {
			vals := make([]float64, len(tl))
			for i, b := range tl {
				vals[i] = b.Busy
			}
			if len(vals) > 72 {
				vals = vals[:72]
			}
			fmt.Fprintf(stdout, "\nutilization timeline (1ms buckets): %s\n", plot.Sparkline(vals))
		}
		fmt.Fprintf(stdout, "\n%s\nwrote %s (open in chrome://tracing or ui.perfetto.dev)\n",
			tracer.RenderSummary(), *traceFile)
	}
	return 0
}

// fail prints the error and returns a non-zero exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "stencil1d:", err)
	return 1
}

func runNative(stdout io.Writer, cfg stencil.Config, cores int, policyName string, dumpCounters, verify bool, tracer *trace.Tracer, introspectAddr string) error {
	pol, err := taskrt.ParsePolicy(policyName)
	if err != nil {
		return err
	}
	if cores == 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	opts := []taskrt.Option{taskrt.WithWorkers(cores), taskrt.WithPolicy(pol)}
	if tracer != nil {
		opts = append(opts, taskrt.WithTracer(tracer))
	}
	rt := taskrt.New(opts...)
	if introspectAddr != "" {
		ln, err := net.Listen("tcp", introspectAddr)
		if err != nil {
			return fmt.Errorf("introspect: %w", err)
		}
		srv := &http.Server{Handler: introspect.NewHandler(rt.Counters())}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(stdout, "introspect       http://%s/counters\n", ln.Addr())
	}
	rt.Start()
	start := time.Now()
	sol, err := stencil.Run(rt, cfg)
	elapsed := time.Since(start)
	snap := rt.Counters().Snapshot()
	names := rt.Counters().Names()
	rt.Shutdown()
	if err != nil {
		return err
	}

	raw := core.RawRunFromSnapshot(snap, cores, elapsed)
	fmt.Fprintf(stdout, "engine           native (%s, %d workers)\n", pol, cores)
	printRun(stdout, cfg, elapsed.Seconds(), raw.IdleRate(), raw.TaskDurationNs(), raw.TaskOverheadNs(),
		raw.Tasks, raw.PendingAccesses, raw.PendingMisses)
	fmt.Fprintf(stdout, "total heat       %.6g\n", sol.Sum())

	if verify {
		want, err := stencil.Reference(cfg)
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
	if dumpCounters {
		fmt.Fprintln(stdout, "\ncounters:")
		for _, n := range names {
			fmt.Fprintf(stdout, "  %-45s %v\n", n, snap.Get(n))
		}
	}
	return nil
}

func runSim(stdout io.Writer, cfg stencil.Config, platform string, cores int, policyName string, tracer *trace.Tracer) error {
	prof, err := costmodel.ByName(platform)
	if err != nil {
		return err
	}
	var pol sim.Policy
	switch policyName {
	case "priority-local-fifo":
		pol = sim.PriorityLocalFIFO
	case "static-round-robin":
		pol = sim.StaticRoundRobin
	case "work-stealing-lifo":
		pol = sim.WorkStealingLIFO
	default:
		return fmt.Errorf("unknown policy %q", policyName)
	}
	wl, err := stencil.NewSimWorkload(cfg)
	if err != nil {
		return err
	}
	r, err := sim.Run(sim.Config{Profile: prof, Cores: cores, Policy: pol, Tracer: tracer}, wl)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "engine           sim (%s, %d cores, policy %s)\n", prof.Name, r.Cores, policyName)
	printRun(stdout, cfg, r.MakespanNs/1e9, r.IdleRate(), r.AvgTaskDurationNs(), r.AvgTaskOverheadNs(),
		float64(r.Tasks), float64(r.PendingAccesses), float64(r.PendingMisses))
	fmt.Fprintf(stdout, "stolen           %d\n", r.Stolen)
	fmt.Fprintf(stdout, "energy           %.2f J (model: %.1fW idle + %.1fW active per core)\n",
		r.EnergyJ, prof.IdleWattsPerCore, prof.ActiveWattsPerCore)
	return nil
}

func printRun(w io.Writer, cfg stencil.Config, execS, idle, tdNs, toNs, tasks, pqAcc, pqMiss float64) {
	fmt.Fprintf(w, "grid points      %d\n", cfg.TotalPoints)
	fmt.Fprintf(w, "partition size   %d (%d partitions)\n", cfg.PointsPerPartition, cfg.Partitions())
	fmt.Fprintf(w, "time steps       %d\n", cfg.TimeSteps)
	fmt.Fprintf(w, "execution time   %.4f s\n", execS)
	fmt.Fprintf(w, "idle-rate        %.1f %%\n", idle*100)
	fmt.Fprintf(w, "task duration    %.2f µs (t_d, Eq. 2)\n", tdNs/1000)
	fmt.Fprintf(w, "task overhead    %.2f µs (t_o, Eq. 3)\n", toNs/1000)
	fmt.Fprintf(w, "tasks executed   %.0f\n", tasks)
	fmt.Fprintf(w, "pending q        %.0f accesses, %.0f misses\n", pqAcc, pqMiss)
}
