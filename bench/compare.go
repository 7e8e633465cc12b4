package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of a comparison: metric B against base A.
type compareRow struct {
	workload, metric, unit string
	a, b                   benchValue
	change                 float64 // (b − a) / a; the base is a
	bound                  float64
	verdict                string
}

// judge compares b against base a. worse is the change in the metric's bad
// direction. When either side's own run-to-run spread exceeds the bound the
// pair cannot show a change of that size either way, so the verdict is
// unresolved, never ok. With symmetric set, a move in either direction
// beyond the bound fails (the repeatability gate: same code twice).
func judge(a, b benchValue, ms metricSpec, symmetric bool) (change float64, verdict string) {
	change = ratio(b.Value-a.Value, a.Value)
	worse := change
	if ms.Better == "higher" {
		worse = -change
	}
	if symmetric {
		worse = math.Abs(change)
	}
	switch {
	case a.Spread > ms.Bound || b.Spread > ms.Bound:
		return change, verdictUnresolved
	case worse > ms.Bound:
		return change, verdictRegressed
	}
	return change, verdictOK
}

// compareFiles lays out one row per workload × end-to-end metric.
func compareFiles(spec *benchSpec, a, b *benchFile, symmetric bool) []compareRow {
	var rows []compareRow
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, ms := range spec.EndToEnd {
			va, vb := wa.EndToEnd[ms.Name], wb.EndToEnd[ms.Name]
			change, v := judge(va, vb, ms, symmetric)
			rows = append(rows, compareRow{wl.Name, ms.Name, ms.Unit, va, vb, change, ms.Bound, v})
		}
	}
	return rows
}

// printRows prints the comparison, every ratio with its base, and returns
// how many rows regressed.
func printRows(rows []compareRow) (regressed int) {
	for _, r := range rows {
		fmt.Printf("%-22s %-15s A %12.4f %-4s (spread %4.1f%%)  B %12.4f (spread %4.1f%%)  %+6.1f%% of A  bound %2.0f%%  %s\n",
			r.workload, r.metric, r.a.Value, r.unit, r.a.Spread*100, r.b.Value, r.b.Spread*100,
			r.change*100, r.bound*100, r.verdict)
		if r.verdict == verdictRegressed {
			regressed++
		}
	}
	return regressed
}

func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain is `bench compare A.json B.json`: exit 1 when anything
// regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	spec, err := loadSpec(benchmarkFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the repository root)\n", err)
		return 2
	}
	a, err := readBenchFile(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readBenchFile(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Printf("A = %s (commit %s)\nB = %s (commit %s)\n", args[0], a.Commit, args[1], b.Commit)
	if printRows(compareFiles(spec, a, b, false)) > 0 {
		return 1
	}
	return 0
}
