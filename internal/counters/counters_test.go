package counters

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCumulativeBasics(t *testing.T) {
	c := NewCumulative("/test/count")
	if c.Name() != "/test/count" {
		t.Fatalf("name = %q", c.Name())
	}
	c.Inc()
	c.Add(4)
	if c.Raw() != 5 || c.Value() != 5 {
		t.Fatalf("value = %v", c.Value())
	}
	c.Reset()
	if c.Raw() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCumulativeConcurrent(t *testing.T) {
	c := NewCumulative("/test/conc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Raw() != 80000 {
		t.Fatalf("raw = %d, want 80000", c.Raw())
	}
}

func TestGauge(t *testing.T) {
	g := NewGauge("/test/gauge")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("value = %v", g.Value())
	}
	g.Set(-3)
	if g.Value() != -3 {
		t.Fatalf("value = %v", g.Value())
	}
	g.Reset()
	if g.Value() != 0 {
		t.Fatal("reset failed")
	}
}

// TestIdleRateOf pins Eq. 1 over an interval: the totals are differenced
// first and the rate is computed from the deltas, never differenced itself.
func TestIdleRateOf(t *testing.T) {
	for _, c := range []struct {
		name         string
		execNs, fnNs float64
		want         float64
	}{
		{"interval", 5000 - 1000, 7000 - 2000, 0.2},
		{"no scheduler time", 0, 0, 0},
		{"negative scheduler time", 10, -5, 0},
		{"exec above func", 200, 100, 0},
		{"all idle", 0, 100, 1},
	} {
		if got := IdleRateOf(c.execNs, c.fnNs); got != c.want {
			t.Errorf("%s: IdleRateOf(%v, %v) = %v, want %v", c.name, c.execNs, c.fnNs, got, c.want)
		}
	}
}

func TestDerived(t *testing.T) {
	exec := NewCumulative(TimeExecTotal)
	fn := NewCumulative(TimeFuncTotal)
	idle := NewDerived(IdleRate, func() float64 {
		return IdleRateOf(exec.Value(), fn.Value())
	})
	if idle.Value() != 0 {
		t.Fatal("idle-rate of empty run must be 0")
	}
	exec.Add(80)
	fn.Add(100)
	if got := idle.Value(); got != 0.2 {
		t.Fatalf("idle = %v, want 0.2", got)
	}
	idle.Reset() // no-op
	if idle.Value() != 0.2 {
		t.Fatal("derived reset must not clear sources")
	}
}

func TestPerWorker(t *testing.T) {
	p := NewPerWorker(PendingAccesses, 4)
	if p.Workers() != 4 {
		t.Fatalf("workers = %d", p.Workers())
	}
	p.Inc(0)
	p.Add(2, 10)
	p.Inc(3)
	if p.Total() != 12 || p.Value() != 12 {
		t.Fatalf("total = %d", p.Total())
	}
	if p.Worker(2) != 10 || p.Worker(1) != 0 {
		t.Fatal("per-worker readings wrong")
	}
	p.Reset()
	if p.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestPerWorkerConcurrentShards(t *testing.T) {
	p := NewPerWorker("/test/shards", 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				p.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if p.Total() != 40000 {
		t.Fatalf("total = %d", p.Total())
	}
	for w := 0; w < 8; w++ {
		if p.Worker(w) != 5000 {
			t.Fatalf("worker %d = %d", w, p.Worker(w))
		}
	}
}

func TestRegistryRegisterGet(t *testing.T) {
	r := NewRegistry()
	c := NewCumulative(CountCumulative)
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewCumulative(CountCumulative)); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	got, ok := r.Get(CountCumulative)
	if !ok || got != Counter(c) {
		t.Fatal("get failed")
	}
	if _, ok := r.Get("/missing"); ok {
		t.Fatal("missing counter found")
	}
	c.Add(3)
	v, ok := r.Value(CountCumulative)
	if !ok || v != 3 {
		t.Fatalf("value = %v ok=%v", v, ok)
	}
	if _, ok := r.Value("/missing"); ok {
		t.Fatal("value of missing counter")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewGauge("/g"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate MustRegister")
		}
	}()
	r.MustRegister(NewGauge("/g"))
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCumulative("/b"))
	r.MustRegister(NewCumulative("/a"))
	r.MustRegister(NewCumulative("/c"))
	names := r.Names()
	want := []string{"/a", "/b", "/c"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestSnapshotAndSub(t *testing.T) {
	r := NewRegistry()
	a := NewCumulative("/a")
	b := NewCumulative("/b")
	r.MustRegister(a)
	r.MustRegister(b)
	a.Add(10)
	s1 := r.Snapshot()
	a.Add(5)
	b.Add(2)
	s2 := r.Snapshot()
	d := s2.Sub(s1)
	if d.Get("/a") != 5 || d.Get("/b") != 2 {
		t.Fatalf("diff = %v", d)
	}
	if s1.Get("/missing") != 0 {
		t.Fatal("missing snapshot entry must read 0")
	}
}

func TestResetAll(t *testing.T) {
	r := NewRegistry()
	a := NewCumulative("/a")
	p := NewPerWorker("/p", 2)
	r.MustRegister(a)
	r.MustRegister(p)
	a.Add(4)
	p.Inc(1)
	r.ResetAll()
	if a.Raw() != 0 || p.Total() != 0 {
		t.Fatal("ResetAll incomplete")
	}
}

// Property: PerWorker total always equals the sum of shard readings.
func TestQuickPerWorkerTotal(t *testing.T) {
	f := func(incs []uint8, n8 uint8) bool {
		n := int(n8%8) + 1
		p := NewPerWorker("/q", n)
		var want int64
		for _, raw := range incs {
			w := int(raw) % n
			p.Add(w, int64(raw))
			want += int64(raw)
		}
		var sum int64
		for w := 0; w < n; w++ {
			sum += p.Worker(w)
		}
		return p.Total() == want && sum == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot diff of monotone counters is non-negative.
func TestQuickSnapshotMonotone(t *testing.T) {
	f := func(pre, post []uint8) bool {
		r := NewRegistry()
		c := NewCumulative("/m")
		r.MustRegister(c)
		for _, v := range pre {
			c.Add(int64(v))
		}
		s1 := r.Snapshot()
		for _, v := range post {
			c.Add(int64(v))
		}
		s2 := r.Snapshot()
		return s2.Sub(s1).Get("/m") >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCumulativeInc(b *testing.B) {
	c := NewCumulative("/bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkPerWorkerIncParallel(b *testing.B) {
	p := NewPerWorker("/bench", 16)
	var next int64
	b.RunParallel(func(pb *testing.PB) {
		w := int(next) % 16
		next++
		for pb.Next() {
			p.Inc(w)
		}
	})
}

func TestNamesWithPrefix(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCumulative("/threads/count/cumulative"))
	r.MustRegister(NewCumulative("/threads/count/pending-accesses"))
	r.MustRegister(NewCumulative("/other/x"))
	got := r.NamesWithPrefix("/threads/count/")
	if len(got) != 2 || got[0] != "/threads/count/cumulative" {
		t.Fatalf("prefix query = %v", got)
	}
	if len(r.NamesWithPrefix("/nope")) != 0 {
		t.Fatal("bogus prefix matched")
	}
}

func TestInstanceName(t *testing.T) {
	if got := InstanceName("/threads/count/cumulative", 3); got != "/threads{worker-thread#3}/count/cumulative" {
		t.Fatalf("instance name = %q", got)
	}
	if got := InstanceName("/custom/metric", 1); got != "/custom/metric{worker-thread#1}" {
		t.Fatalf("non-threads instance name = %q", got)
	}
}

func TestRegisterInstances(t *testing.T) {
	r := NewRegistry()
	pw := NewPerWorker("/threads/count/pending-accesses", 3)
	if err := r.RegisterInstances(pw); err != nil {
		t.Fatal(err)
	}
	pw.Add(1, 7)
	v, ok := r.Value("/threads{worker-thread#1}/count/pending-accesses")
	if !ok || v != 7 {
		t.Fatalf("instance value = %v ok=%v", v, ok)
	}
	v, _ = r.Value("/threads{worker-thread#0}/count/pending-accesses")
	if v != 0 {
		t.Fatalf("other instance = %v", v)
	}
	// Duplicate registration fails cleanly.
	if err := r.RegisterInstances(pw); err == nil {
		t.Fatal("duplicate instance registration accepted")
	}
}

func TestSnapshotAt(t *testing.T) {
	r := NewRegistry()
	c := NewCumulative("/test/at")
	r.MustRegister(c)
	c.Add(3)
	a := r.SnapshotAt()
	time.Sleep(5 * time.Millisecond)
	c.Add(4)
	b := r.SnapshotAt()
	d, elapsed := b.Sub(a)
	if d.Get("/test/at") != 4 {
		t.Fatalf("delta = %v", d.Get("/test/at"))
	}
	if elapsed < 5*time.Millisecond {
		t.Fatalf("elapsed %v below the real sleep; stamps must be real time", elapsed)
	}
	if !b.At.After(a.At) {
		t.Fatal("sample stamps not increasing")
	}
}

func TestSubResetMarker(t *testing.T) {
	prev := Snapshot{"/a": 5, "/gone": 7, "/also-gone": 1}
	cur := Snapshot{"/a": 9}
	d := cur.Sub(prev)
	if d.Get("/a") != 4 {
		t.Fatalf("/a delta = %v", d.Get("/a"))
	}
	if d.Get(ResetMarker) != 2 {
		t.Fatalf("reset marker = %v, want 2", d.Get(ResetMarker))
	}
	// The vanished counters are present with explicit zero deltas, not
	// silently absent.
	if v, ok := d["/gone"]; !ok || v != 0 {
		t.Fatalf("/gone delta = %v ok=%v, want explicit 0", v, ok)
	}
	if v, ok := d["/also-gone"]; !ok || v != 0 {
		t.Fatalf("/also-gone delta = %v ok=%v, want explicit 0", v, ok)
	}
	resets := cur.Resets(prev)
	if len(resets) != 2 || resets[0] != "/also-gone" || resets[1] != "/gone" {
		t.Fatalf("resets = %v", resets)
	}
	// No resets → no marker: the steady-state path stays unpolluted.
	d2 := cur.Sub(Snapshot{"/a": 1})
	if _, ok := d2[ResetMarker]; ok {
		t.Fatal("reset marker present without resets")
	}
	if len(cur.Resets(Snapshot{"/a": 1})) != 0 {
		t.Fatal("Resets nonempty without resets")
	}
}

// TestSubUnderConcurrentWriters: Snapshot/Sub is the chaos verifier's (and
// the telemetry sampler's) read path, taken while workers are still writing.
// Differencing two live snapshots must be race-free and every delta of a
// monotonic counter must be non-negative — a snapshot may lag the writers but
// can never run backwards.
func TestSubUnderConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	cum := NewCumulative("/stress/cumulative")
	pw := NewPerWorker("/stress/per-worker", 4)
	reg.MustRegister(cum)
	reg.MustRegister(pw)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					cum.Inc()
					pw.Add(w, 2)
				}
			}
		}(w)
	}

	prev := reg.Snapshot()
	for i := 0; i < 200; i++ {
		cur := reg.Snapshot()
		d := cur.Sub(prev)
		for _, name := range []string{"/stress/cumulative", "/stress/per-worker"} {
			if d.Get(name) < 0 {
				t.Errorf("iteration %d: %s delta = %v, ran backwards", i, name, d.Get(name))
			}
		}
		if _, ok := d[ResetMarker]; ok {
			t.Errorf("iteration %d: reset marker on a live registry: %v", i, d)
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

// TestSubAcrossRegistrySwapUnderWriters: the discontinuity case under load —
// a snapshot from a torn-down registry differenced against a snapshot of its
// replacement (fresh counters, different names) while writers hammer both.
// Sub must flag every vanished counter with the reset marker and an explicit
// zero delta, never a negative one, and Resets must name them sorted.
func TestSubAcrossRegistrySwapUnderWriters(t *testing.T) {
	oldReg := NewRegistry()
	oldCum := NewCumulative("/swap/old-only")
	shared := NewCumulative("/swap/shared")
	oldReg.MustRegister(oldCum)
	oldReg.MustRegister(shared)

	newReg := NewRegistry()
	// The replacement registry restarts /swap/shared from zero and grows a
	// new counter; /swap/old-only is gone.
	shared2 := NewCumulative("/swap/shared")
	newCum := NewCumulative("/swap/new-only")
	newReg.MustRegister(shared2)
	newReg.MustRegister(newCum)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range []*Cumulative{oldCum, shared, shared2, newCum} {
		wg.Add(1)
		go func(c *Cumulative) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
				}
			}
		}(c)
	}

	for i := 0; i < 200; i++ {
		prev := oldReg.Snapshot()
		cur := newReg.Snapshot()
		d := cur.Sub(prev)
		if d.Get(ResetMarker) != 1 {
			t.Fatalf("iteration %d: reset marker = %v, want 1 (/swap/old-only vanished)", i, d.Get(ResetMarker))
		}
		if v, ok := d["/swap/old-only"]; !ok || v != 0 {
			t.Fatalf("iteration %d: vanished counter delta = %v ok=%v, want explicit 0", i, v, ok)
		}
		if resets := cur.Resets(prev); len(resets) != 1 || resets[0] != "/swap/old-only" {
			t.Fatalf("iteration %d: resets = %v", i, resets)
		}
		// The restarted shared counter may difference negative across the
		// swap — that is exactly why the marker exists; a consumer that
		// checked it knows to discard the interval. The new-only counter,
		// absent from prev, reads as its full value.
		if d.Get("/swap/new-only") < 0 {
			t.Fatalf("iteration %d: new counter delta = %v", i, d.Get("/swap/new-only"))
		}
	}
	close(stop)
	wg.Wait()
}

func TestPairExportsPartAndWhole(t *testing.T) {
	r := NewRegistry()
	p := NewPair(PendingMisses, PendingAccesses, 2)
	if err := r.RegisterPair(p); err != nil {
		t.Fatal(err)
	}
	p.AddPart(0, 3) // misses
	p.AddRest(0, 4) // hits
	p.AddRest(1, 5)
	want := map[string]float64{
		PendingMisses:                    3,
		PendingAccesses:                  12,
		InstanceName(PendingMisses, 0):   3,
		InstanceName(PendingAccesses, 0): 7,
		InstanceName(PendingMisses, 1):   0,
		InstanceName(PendingAccesses, 1): 5,
	}
	s := r.Snapshot()
	for n, v := range want {
		if s[n] != v {
			t.Errorf("snapshot %s = %v, want %v", n, s[n], v)
		}
		if got, _ := r.Value(n); got != v {
			t.Errorf("Value(%s) = %v, want %v", n, got, v)
		}
	}
	if len(s) != len(want) {
		t.Errorf("snapshot has %d names, want %d", len(s), len(want))
	}
	for _, n := range r.Names() {
		c, _ := r.Get(n)
		if !Monotonic(c) {
			t.Errorf("%s not monotonic", n)
		}
	}
	r.ResetAll()
	if part, whole := p.Totals(); part != 0 || whole != 0 {
		t.Fatalf("after ResetAll: %d, %d", part, whole)
	}
}

func TestPairWholeAsGauge(t *testing.T) {
	r := NewRegistry()
	p := NewPair(TimeExecTotal, TimeFuncTotal, 2).WholeAsGauge()
	if err := r.RegisterPair(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(InstanceName(TimeFuncTotal, 0)); ok {
		t.Fatal("gauge whole registered per-worker instances")
	}
	if _, ok := r.Get(InstanceName(TimeExecTotal, 1)); !ok {
		t.Fatal("part instance missing")
	}
	whole, _ := r.Get(TimeFuncTotal)
	part, _ := r.Get(TimeExecTotal)
	if Monotonic(whole) || !Monotonic(part) {
		t.Fatalf("Monotonic(whole) = %v, Monotonic(part) = %v", Monotonic(whole), Monotonic(part))
	}
}

func TestPairOpenRestCountsLive(t *testing.T) {
	var now int64
	p := NewPair("/test/part", "/test/whole", 1).WithClock(func() int64 { return now })
	p.AddRest(0, 10)
	p.OpenRest(0, 0) // the clock may start at zero
	now = 25
	if _, whole := p.Worker(0); whole != 35 {
		t.Fatalf("open interval: whole = %d, want 35", whole)
	}
	now = 40
	if at := p.CloseRest(0); at != 40 {
		t.Fatalf("CloseRest = %d, want 40", at)
	}
	now = 100 // closed: no longer grows
	if _, whole := p.Worker(0); whole != 50 {
		t.Fatalf("closed interval: whole = %d, want 50", whole)
	}
}

// TestPairReadingsConsistentUnderWriters checks part ≤ whole and both
// monotonic across readings while a writer adds to both and opens and
// closes live intervals.
func TestPairReadingsConsistentUnderWriters(t *testing.T) {
	start := time.Now()
	clock := func() int64 { return int64(time.Since(start)) }
	p := NewPair("/test/part", "/test/whole", 1).WithClock(clock)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mark := clock()
		for {
			select {
			case <-stop:
				return
			default:
			}
			begin := clock()
			p.AddRest(0, begin-mark)
			end := clock()
			p.AddPart(0, end-begin)
			p.OpenRest(0, end)
			mark = p.CloseRest(0)
		}
	}()
	var prevPart, prevWhole int64
	for i := 0; i < 20000; i++ {
		part, whole := p.Worker(0)
		if part > whole || part < prevPart || whole < prevWhole || whole-prevWhole < part-prevPart {
			t.Fatalf("reading %d: (%d, %d) after (%d, %d)", i, part, whole, prevPart, prevWhole)
		}
		prevPart, prevWhole = part, whole
	}
	close(stop)
	wg.Wait()
}
