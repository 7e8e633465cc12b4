package counters

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("/threads/time/phase-duration-histogram")
	if h.Name() != "/threads/time/phase-duration-histogram" {
		t.Fatal("name")
	}
	if h.Mean() != 0 || h.Count() != 0 || h.Value() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must read zero")
	}
	h.Observe(100)
	h.Observe(200)
	h.Observe(300)
	if h.Count() != 3 || h.Sum() != 600 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Mean() != 200 || h.Value() != 200 {
		t.Fatalf("mean = %v", h.Mean())
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || len(h.Buckets()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram("/h")
	h.Observe(-5)
	if h.Sum() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation: sum=%d count=%d", h.Sum(), h.Count())
	}
	bks := h.Buckets()
	if len(bks) != 1 || bks[0].LoNs != 0 {
		t.Fatalf("buckets = %+v", bks)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("/h")
	// 1000ns → bucket [512, 1024); 1024 → [1024, 2048).
	h.Observe(1000)
	h.Observe(1024)
	bks := h.Buckets()
	if len(bks) != 2 {
		t.Fatalf("buckets = %+v", bks)
	}
	if bks[0].LoNs != 512 || bks[0].HiNs != 1024 || bks[0].Count != 1 {
		t.Fatalf("bucket 0 = %+v", bks[0])
	}
	if bks[1].LoNs != 1024 || bks[1].HiNs != 2048 || bks[1].Count != 1 {
		t.Fatalf("bucket 1 = %+v", bks[1])
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("/h")
	for i := 0; i < 99; i++ {
		h.Observe(1000) // bucket [512,1024), midpoint ≈ 724
	}
	h.Observe(1 << 20) // one outlier around 1ms
	p50 := h.Quantile(0.5)
	if p50 < 512 || p50 > 1024 {
		t.Fatalf("p50 = %v, want within [512,1024)", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < float64(1<<19) {
		t.Fatalf("p999 = %v, want in the outlier bucket", p999)
	}
	// Clamping.
	if h.Quantile(-1) <= 0 || h.Quantile(2) < p999 {
		t.Fatal("quantile clamping")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("/h")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 8*10000*9999/2 {
		t.Fatalf("sum = %d", h.Sum())
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram("/h")
	if !strings.Contains(h.Render(), "(empty)") {
		t.Fatal("empty render")
	}
	for i := 0; i < 100; i++ {
		h.Observe(1500)
	}
	h.Observe(3_000_000)
	out := h.Render()
	for _, want := range []string{"n=101", "mean=", "p50=", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramInRegistry(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("/threads/time/phase-duration-histogram")
	r.MustRegister(h)
	h.Observe(500)
	v, ok := r.Value("/threads/time/phase-duration-histogram")
	if !ok || v != 500 {
		t.Fatalf("registry value = %v ok=%v", v, ok)
	}
	r.ResetAll()
	if h.Count() != 0 {
		t.Fatal("registry reset missed histogram")
	}
}

// Property: quantiles are monotone in q and bracket the observations'
// bucket range; count equals the number of Observes.
func TestQuickHistogramInvariants(t *testing.T) {
	f := func(raw []uint32) bool {
		h := NewHistogram("/q")
		for _, v := range raw {
			h.Observe(int64(v))
		}
		if h.Count() != int64(len(raw)) {
			return false
		}
		if len(raw) == 0 {
			return true
		}
		prev := -1.0
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
			v := h.Quantile(q)
			if math.IsNaN(v) || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("/bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// Concurrent ObserveAt on every shard reads back as one histogram: Count,
// Sum, Buckets and Quantile equal those of the same observations made into
// a single shard, and Reset clears every shard.
func TestHistogramPerWorkerMerges(t *testing.T) {
	const workers, perWorker = 4, 5000
	h := NewPerWorkerHistogram("/h", workers)
	truth := NewHistogram("/truth")
	value := func(w, i int) int64 { return int64((w+1)*i) % 1_000_003 }
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			truth.Observe(value(w, i))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.ObserveAt(w, value(w, i))
			}
		}(w)
	}
	wg.Wait()

	if h.Count() != truth.Count() || h.Sum() != truth.Sum() || h.Mean() != truth.Mean() {
		t.Fatalf("count/sum/mean = %d/%d/%v, want %d/%d/%v",
			h.Count(), h.Sum(), h.Mean(), truth.Count(), truth.Sum(), truth.Mean())
	}
	got, want := h.Buckets(), truth.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if h.Quantile(q) != truth.Quantile(q) {
			t.Fatalf("quantile %v = %v, want %v", q, h.Quantile(q), truth.Quantile(q))
		}
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || len(h.Buckets()) != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset left observations in a shard")
	}
}
