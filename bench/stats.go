package main

import (
	"sort"

	"taskgrain/internal/stats"
)

// sliceIndexes buckets completion offsets into the slices that marks bound:
// slice k holds the samples with marks[k] ≤ doneAt < marks[k+1]. Samples
// outside every slice (completed after the window closed) are dropped.
func sliceIndexes(doneAt, marks []float64) [][]int {
	if len(marks) < 2 {
		return nil
	}
	out := make([][]int, len(marks)-1)
	for i, t := range doneAt {
		k := sort.SearchFloat64s(marks, t)
		if k < len(marks) && marks[k] == t {
			k++
		}
		if k >= 1 && k < len(marks) {
			out[k-1] = append(out[k-1], i)
		}
	}
	return out
}

// quietQuartile is the value a metric takes in the quieter slices: the
// first quartile across slices when lower is better, the third when higher
// is. On a shared host interference only ever slows a slice down, and it
// comes in stretches of seconds to minutes, so a median over slices moves
// with the neighbours while the quiet quartile tracks what the code can do;
// a change in the code moves every slice, the quiet ones too. A more extreme
// quantile would be steadier still against interference but latches onto a
// rare fast mode (two clients falling into step for a few seconds).
func quietQuartile(perSlice []float64, better string) float64 {
	if better == "higher" {
		return stats.Percentile(perSlice, 75)
	}
	return stats.Percentile(perSlice, 25)
}
