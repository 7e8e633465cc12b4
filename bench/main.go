// Command bench is the repository's benchmark: four serving-stack
// workloads, client-observed end-to-end metrics, and per-layer metrics from
// an outside-in trace, counter deltas and a direct-call ladder. See
// README.md in this directory.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    result as one JSON object (the contract BENCHMARK.json describes)
//	bash bench/run.sh [-seed N] [-seconds S] [-repeat R] [-smoke]
//	    every workload, each run in a fresh child process, untraced then
//	    traced; prints every metric and writes bench/results/BENCH_11.json
//	bash bench/run.sh compare A.json B.json
//	    per workload and end-to-end metric: both values, the change, the
//	    bound, and ok | regressed | unresolved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Paths are relative to the working directory, which is the repository
// root: everything the benchmark writes stays inside the checkout.
const (
	defaultJournalRoot = ".bench_build/journal"
	resultsDir         = "bench/results"
	benchmarkFile      = "BENCHMARK.json"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result line (default: run the whole suite)")
		seed         = flag.Int64("seed", 1, "seed for job sizes, idempotency keys and trace ids")
		seconds      = flag.Int("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics")
		journalRoot  = flag.String("journal-root", defaultJournalRoot, "directory for journal files; its filesystem decides what an fsync costs")
		smoke        = flag.Bool("smoke", false, "exercise every path for under a second each; times nothing")
		repeat       = flag.Int("repeat", 1, "suite only: run the set this many times and fail if two sets differ by more than a bound")
		outFile      = flag.String("out", resultsDir+"/BENCH_11.json", "suite only: where to archive the last set")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the repository root)\n", err)
		os.Exit(2)
	}
	window := time.Duration(spec.RunSeconds) * time.Second
	if *seconds > 0 {
		window = time.Duration(*seconds) * time.Second
	}
	if *smoke {
		window = 300 * time.Millisecond
	}

	if *workloadName == "" {
		os.Exit(suiteMain(spec, suiteConfig{
			seed: *seed, window: window, smoke: *smoke, repeat: *repeat, journalRoot: *journalRoot, out: *outFile,
		}))
	}

	wl, err := findWorkload(*workloadName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	out, err := runOne(runConfig{
		wl: wl, seed: *seed, window: window, trace: *traceFlag != 0, smoke: *smoke,
		journalRoot: *journalRoot, resultsDir: resultsDir, logw: os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d jobs failed\n", wl.name, out.Failed, out.Attempted)
	}
}
