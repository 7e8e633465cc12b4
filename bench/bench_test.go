package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestSliceIndexes(t *testing.T) {
	// Slice boundaries as the ticker leaves them (not quite even), three
	// completions in the first slice, one in the second, none in the third,
	// two in the fourth, and one after the window closed.
	marks := []float64{0, 1.0, 2.01, 3.0, 4.02}
	doneAt := []float64{0.1, 3.2, 0.5, 1.0, 0.99, 3.9, 4.5}
	got := sliceIndexes(doneAt, marks)
	want := [][]int{{0, 2, 4}, {3}, nil, {1, 5}}
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for k := range want {
		if len(got[k]) != len(want[k]) {
			t.Errorf("slice %d holds %v, want %v", k, got[k], want[k])
			continue
		}
		for j := range want[k] {
			if got[k][j] != want[k][j] {
				t.Errorf("slice %d holds %v, want %v", k, got[k], want[k])
			}
		}
	}
	if got := sliceIndexes(doneAt, []float64{0}); got != nil {
		t.Errorf("a window without a closing mark has slices: %v", got)
	}
}

func TestQuietQuartile(t *testing.T) {
	// Twenty one-second slices, a quarter of them slowed by a neighbour:
	// the quiet quartile reads the undisturbed level, on either side.
	var rates, lats []float64
	for k := 0; k < 20; k++ {
		r, l := 1000.0+float64(k%5), 2.0+0.01*float64(k%5)
		if k >= 8 && k < 13 {
			r, l = 600, 3.5
		}
		rates, lats = append(rates, r), append(lats, l)
	}
	if got := quietQuartile(rates, "higher"); got < 1002 || got > 1004 {
		t.Errorf("quiet-quartile rate = %v, want the undisturbed 1002..1004", got)
	}
	if got := quietQuartile(lats, "lower"); got < 2.0 || got > 2.02 {
		t.Errorf("quiet-quartile latency = %v, want the undisturbed 2.00..2.02", got)
	}
	// A fast mode in two slices (the clients fell into step) is not latched onto.
	lats[0], lats[1] = 0.9, 0.9
	if got := quietQuartile(lats, "lower"); got < 2.0 {
		t.Errorf("quiet-quartile latency = %v with two fast slices, want at least 2.0", got)
	}
	if got := quietQuartile([]float64{7}, "lower"); got != 7 {
		t.Errorf("one slice = %v, want 7", got)
	}
	if rates[8] != 600 {
		t.Error("quietQuartile reordered its input")
	}
}

// at returns base + µs microseconds.
func at(base time.Time, us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }

func TestStagesTelescope(t *testing.T) {
	b := time.Now()
	jt := jobTrace{
		t0: b, tAck: at(b, 400), tEnd: at(b, 1000),
		nodePost:  span{at(b, 50), at(b, 380)},
		submitted: at(b, 70), started: at(b, 300), finished: at(b, 800),
	}
	st := jt.stages()
	want := [6]time.Duration{50, 0, 20, 230, 500, 200}
	for i := range want {
		if st[i] != want[i]*time.Microsecond {
			t.Errorf("%s = %v, want %vµs", stageNames[i], st[i], want[i])
		}
	}
	if rel, err := checkTelescoping(st[:], jt.tEnd.Sub(jt.t0), 0.01); err != nil || rel != 0 {
		t.Errorf("chain does not telescope: rel %v, err %v", rel, err)
	}

	// Through a gateway the first handler is the gateway's, and the
	// route-forward link appears; the sum is still the latency.
	jt.gwPost = span{at(b, 20), at(b, 395)}
	st = jt.stages()
	if st[0] != 20*time.Microsecond || st[1] != 30*time.Microsecond {
		t.Errorf("gateway stages = %v, %v; want 20µs, 30µs", st[0], st[1])
	}
	if _, err := checkTelescoping(st[:], jt.tEnd.Sub(jt.t0), 0.01); err != nil {
		t.Errorf("gateway chain does not telescope: %v", err)
	}

	// A stamp out of order is a negative stage, and a sum that misses the
	// latency by more than the tolerance is reported.
	jt.started = at(b, 60)
	st = jt.stages()
	if _, err := checkTelescoping(st[:], jt.tEnd.Sub(jt.t0), 0.01); err == nil {
		t.Error("negative stage was not reported")
	}
	if _, err := checkTelescoping([]time.Duration{400, 500}, 1000, 0.01); err == nil {
		t.Error("a 10% shortfall passed a 1% tolerance")
	}
	if _, err := checkTelescoping([]time.Duration{495, 500}, 1000, 0.01); err != nil {
		t.Errorf("a 0.5%% shortfall failed a 1%% tolerance: %v", err)
	}
}

func TestSelfTime(t *testing.T) {
	b := time.Now()
	parent := span{b, at(b, 100)}
	for _, c := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"one child inside", []span{{at(b, 10), at(b, 40)}}, 70},
		{"disjoint children", []span{{at(b, 10), at(b, 20)}, {at(b, 50), at(b, 80)}}, 60},
		{"overlapping children count once", []span{{at(b, 10), at(b, 60)}, {at(b, 40), at(b, 80)}}, 30},
		{"unordered input", []span{{at(b, 50), at(b, 80)}, {at(b, 10), at(b, 20)}}, 60},
		{"child sticks out both ends", []span{{at(b, -50), at(b, 30)}, {at(b, 90), at(b, 500)}}, 60},
		{"child outside entirely", []span{{at(b, 200), at(b, 300)}}, 100},
		{"child covers parent", []span{{at(b, -1), at(b, 101)}}, 0},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Microsecond {
			t.Errorf("%s: self time %v, want %dµs", c.name, got, c.want)
		}
	}

	// The long-poll that waited on the job did only its tail of work.
	jt := jobTrace{submitted: at(b, 0), finished: at(b, 900),
		nodeGets: []span{{at(b, 100), at(b, 950)}, {at(b, 960), at(b, 1000)}}}
	if got := jt.pollSelf(); got != 90*time.Microsecond {
		t.Errorf("pollSelf = %v, want 90µs", got)
	}
}

func TestJobSpansSelfTimes(t *testing.T) {
	b := time.Now()
	jt := jobTrace{
		t0: b, tAck: at(b, 400), tEnd: at(b, 1000),
		gwPost: span{at(b, 20), at(b, 395)}, nodePost: span{at(b, 50), at(b, 380)},
		submitted: at(b, 70), started: at(b, 300), finished: at(b, 800),
		gwGets:   []span{{at(b, 420), at(b, 990)}},
		nodeGets: []span{{at(b, 450), at(b, 980)}},
	}
	spans := jt.jobSpans(b)
	byName := map[string]fileSpan{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if got := byName["gateway.post"].SelfUS; got != 45 {
		t.Errorf("gateway.post self = %v, want 45 (375 − the node's 330)", got)
	}
	if got := byName["gateway.get"].SelfUS; got != 40 {
		t.Errorf("gateway.get self = %v, want 40", got)
	}
	if p := byName["node.get"].Parent; spans[p].Name != "gateway.get" {
		t.Errorf("node.get hangs under %s, want gateway.get", spans[p].Name)
	}
	// The root's children (submit, queue, run, poll) cover 0..400 and
	// 70..800 and 420..990: only the last 10 µs are the client's own.
	if got := byName["client.job"].SelfUS; got != 10 {
		t.Errorf("client.job self = %v, want 10", got)
	}
}

func TestJobIDs(t *testing.T) {
	single := []byte("{\n  \"id\": \"j-17\",\n  \"kind\": \"fibonacci\"\n}")
	if got := jobIDs(single); len(got) != 1 || got[0] != "j-17" {
		t.Errorf("single reply ids = %v", got)
	}
	batch := []byte(`{"admitted":2,"results":[{"status":202,"job":{"id":"j-3","mesh":{"id":"x"}}},{"status":429},{"status":202,"job":{"id": "j-4"}}]}`)
	if got := jobIDs(batch); len(got) != 2 || got[0] != "j-3" || got[1] != "j-4" {
		t.Errorf("batch reply ids = %v", got)
	}
	if got := jobIDs([]byte(`{"error":"no"}`)); got != nil {
		t.Errorf("error reply ids = %v", got)
	}
}

func TestReferenceChecksums(t *testing.T) {
	for n, want := range map[int]float64{0: 0, 1: 1, 8: 21, 10: 55, 12: 144, 20: 6765} {
		if got := fibChecksum(n); got != want {
			t.Errorf("fib(%d) = %v, want %v", n, got, want)
		}
	}
	// Diffusion on a ring conserves the sum of the initial values 0..n−1
	// up to rounding.
	for _, n := range stencilSizes {
		want := float64(n) * float64(n-1) / 2
		if got := stencilChecksum(n); math.Abs(got-want) > 1e-6*want {
			t.Errorf("stencil reference sum(%d) = %v, want about %v", n, got, want)
		}
	}
	if checksumOK(55.0001, 55) || !checksumOK(55, 55) {
		t.Error("checksumOK tolerance is wrong")
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	v := func(x, spread float64) benchValue { return benchValue{Value: x, Spread: spread} }
	for _, c := range []struct {
		name      string
		a, b      benchValue
		ms        metricSpec
		symmetric bool
		want      string
	}{
		{"latency up 20%", v(10, 0.01), v(12, 0.01), lower, false, verdictRegressed},
		{"latency up 5%", v(10, 0.01), v(10.5, 0.01), lower, false, verdictOK},
		{"latency down 50% is a gain, not a regression", v(10, 0.01), v(5, 0.01), lower, false, verdictOK},
		{"throughput down 20%", v(1000, 0.01), v(800, 0.01), higher, false, verdictRegressed},
		{"throughput up 20%", v(1000, 0.01), v(1200, 0.01), higher, false, verdictOK},
		{"noisy base cannot show no change", v(10, 0.2), v(10, 0.01), lower, false, verdictUnresolved},
		{"noisy change cannot show a regression either", v(10, 0.01), v(13, 0.2), lower, false, verdictUnresolved},
		{"repeatability gate fails on a gain too", v(1000, 0.01), v(1200, 0.01), higher, true, verdictRegressed},
		{"repeatability gate passes within the bound", v(1000, 0.01), v(950, 0.01), higher, true, verdictOK},
	} {
		if _, got := judge(c.a, c.b, c.ms, c.symmetric); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if change, _ := judge(v(10, 0), v(12, 0), lower, false); math.Abs(change-0.2) > 1e-12 {
		t.Errorf("change = %v, want +0.2 of the base", change)
	}
}

// TestSmoke runs every workload, untraced and traced (which includes the
// ladder), for a fraction of a second each. It times nothing: it keeps the
// benchmark compiling, correct and in step with BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", benchmarkFile))
	if err != nil {
		t.Skipf("no BENCHMARK.json to check against: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, spec.Workloads[i].Name, wl.name)
		}
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			results := t.TempDir()
			out, err := runOne(runConfig{
				wl: wl, seed: 7, window: 300 * time.Millisecond, trace: traced, smoke: true,
				journalRoot: t.TempDir(), resultsDir: results,
			})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", wl.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d failed", wl.name, traced, out.Correct, out.Failed, out.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if _, err := os.Stat(filepath.Join(results, "trace-"+wl.name+".json")); err != nil {
					t.Errorf("%s: traced run wrote no trace file: %v", wl.name, err)
				}
			}
			var got, names []string
			for name := range out.Metrics {
				got = append(got, name)
			}
			for _, ms := range want {
				names = append(names, ms.Name)
				if m, ok := out.Metrics[ms.Name]; ok && m.Unit != ms.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.name, ms.Name, m.Unit, ms.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(names)
			if len(got) != len(names) {
				t.Errorf("%s (traced %v): %d metrics printed, BENCHMARK.json lists %d\n got: %v\nwant: %v",
					wl.name, traced, len(got), len(names), got, names)
				continue
			}
			for i := range got {
				if got[i] != names[i] {
					t.Errorf("%s (traced %v): printed %q where BENCHMARK.json lists %q", wl.name, traced, got[i], names[i])
				}
			}
		}
	}
}
