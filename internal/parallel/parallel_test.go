package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"taskgrain/internal/taskrt"
)

func newRT(t *testing.T, workers int) *taskrt.Runtime {
	t.Helper()
	rt := taskrt.New(taskrt.WithWorkers(workers))
	rt.Start()
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestAutoGrain(t *testing.T) {
	rt := newRT(t, 4)
	if g := AutoGrain(rt, 0, 0); g != 1 {
		t.Errorf("n=0 grain = %d", g)
	}
	if g := AutoGrain(rt, 3200, 0); g != 100 {
		t.Errorf("default grain = %d, want 3200/(4*8)=100", g)
	}
	if g := AutoGrain(rt, 3200, 4); g != 200 {
		t.Errorf("k=4 grain = %d, want 200", g)
	}
	if g := AutoGrain(rt, 5, 0); g != 1 {
		t.Errorf("tiny n grain = %d", g)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	rt := newRT(t, 3)
	for _, grain := range []int{0, 1, 7, 100, 10000} {
		n := 1000
		counts := make([]atomic.Int32, n)
		For(rt, n, grain, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("grain %d: index %d visited %d times", grain, i, c)
			}
		}
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	rt := newRT(t, 2)
	ran := false
	For(rt, 0, 10, func(int) { ran = true })
	For(rt, -5, 10, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for empty range")
	}
}

func TestForRangeChunkBoundaries(t *testing.T) {
	rt := newRT(t, 2)
	var total atomic.Int64
	var calls atomic.Int64
	ForRange(rt, 10, 4, func(lo, hi int) {
		calls.Add(1)
		total.Add(int64(hi - lo))
	})
	if total.Load() != 10 {
		t.Fatalf("covered %d indices", total.Load())
	}
	if calls.Load() != 3 { // 4+4+2
		t.Fatalf("chunks = %d, want 3", calls.Load())
	}
}

func TestMap(t *testing.T) {
	rt := newRT(t, 3)
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	out := Map(rt, in, 13, func(x int) int { return x * x })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if got := Map(rt, []int{}, 5, func(x int) int { return x }); len(got) != 0 {
		t.Fatal("empty map")
	}
}

func TestReduceAssociativeNonCommutative(t *testing.T) {
	rt := newRT(t, 3)
	// String concatenation: associative, NOT commutative — chunk order must
	// be preserved.
	in := []string{"a", "b", "c", "d", "e", "f", "g"}
	got := Reduce(rt, in, 2, "", func(x, y string) string { return x + y })
	if got != "abcdefg" {
		t.Fatalf("reduce = %q", got)
	}
}

func TestReduceSum(t *testing.T) {
	rt := newRT(t, 4)
	in := make([]int64, 10000)
	for i := range in {
		in[i] = int64(i)
	}
	for _, grain := range []int{0, 1, 3, 999, 100000} {
		got := Reduce(rt, in, grain, 0, func(a, b int64) int64 { return a + b })
		if got != 10000*9999/2 {
			t.Fatalf("grain %d: sum = %d", grain, got)
		}
	}
	if got := Reduce(rt, nil, 5, int64(42), func(a, b int64) int64 { return a + b }); got != 42 {
		t.Fatalf("empty reduce = %d, want identity", got)
	}
}

// Property: For matches a sequential loop for arbitrary n/grain.
func TestQuickForMatchesSequential(t *testing.T) {
	rt := newRT(t, 2)
	f := func(n16 uint16, g16 uint16) bool {
		n := int(n16 % 2000)
		grain := int(g16 % 300)
		var par, seq atomic.Int64
		For(rt, n, grain, func(i int) { par.Add(int64(i) + 1) })
		for i := 0; i < n; i++ {
			seq.Add(int64(i) + 1)
		}
		return par.Load() == seq.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reduce with integer addition equals the sequential sum.
func TestQuickReduceSum(t *testing.T) {
	rt := newRT(t, 2)
	f := func(xs []int16, g8 uint8) bool {
		in := make([]int64, len(xs))
		var want int64
		for i, x := range xs {
			in[i] = int64(x)
			want += int64(x)
		}
		got := Reduce(rt, in, int(g8%40), 0, func(a, b int64) int64 { return a + b })
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForGrainSweep(b *testing.B) {
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	for _, grain := range []int{1, 64, 4096} {
		b.Run(sizeName(grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				For(rt, 100000, grain, func(j int) { _ = j * j })
			}
		})
	}
}

func sizeName(g int) string {
	switch g {
	case 1:
		return "grain1"
	case 64:
		return "grain64"
	default:
		return "grain4096"
	}
}

func TestForSurvivesBodyPanic(t *testing.T) {
	// A panicking body must not deadlock the loop: the chunk's WaitGroup
	// release runs during unwinding and the runtime contains the panic.
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	var ran atomic.Int64
	ForRange(rt, 100, 10, func(lo, hi int) {
		if lo == 50 {
			panic("chunk boom")
		}
		ran.Add(int64(hi - lo))
	})
	if ran.Load() != 90 {
		t.Fatalf("surviving chunks covered %d, want 90", ran.Load())
	}
	exc, _ := rt.Counters().Value("/threads/count/exceptions")
	if exc != 1 {
		t.Fatalf("exceptions = %v", exc)
	}
}
