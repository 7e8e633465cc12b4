package stencil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"taskgrain/internal/costmodel"
	"taskgrain/internal/sim"
	"taskgrain/internal/taskrt"
)

func TestConfigValidate(t *testing.T) {
	good := Config{TotalPoints: 100, PointsPerPartition: 10, TimeSteps: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{TotalPoints: 0, PointsPerPartition: 1, TimeSteps: 1},
		{TotalPoints: 10, PointsPerPartition: 0, TimeSteps: 1},
		{TotalPoints: 10, PointsPerPartition: 11, TimeSteps: 1},
		{TotalPoints: 10, PointsPerPartition: 2, TimeSteps: -1},
		{TotalPoints: 10, PointsPerPartition: 2, TimeSteps: 1, Alpha: 0.9},
		{TotalPoints: 10, PointsPerPartition: 2, TimeSteps: 1, Alpha: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestPartitionsAndRemainder(t *testing.T) {
	c := Config{TotalPoints: 10, PointsPerPartition: 3, TimeSteps: 1}
	if c.Partitions() != 4 {
		t.Fatalf("partitions = %d", c.Partitions())
	}
	sizes := []int{3, 3, 3, 1}
	total := 0
	for p, want := range sizes {
		if got := c.PointsOf(p); got != want {
			t.Errorf("PointsOf(%d) = %d, want %d", p, got, want)
		}
		total += c.PointsOf(p)
	}
	if total != 10 {
		t.Fatalf("sizes sum to %d", total)
	}
}

func TestReferenceHandComputed(t *testing.T) {
	// Ring of 3, one step, alpha 0.25, u0 = [0,1,2]:
	// u1[i] = u[i] + 0.25*(u[i-1] - 2u[i] + u[i+1])
	// u1[0] = 0 + 0.25*(2 - 0 + 1)  = 0.75
	// u1[1] = 1 + 0.25*(0 - 2 + 2)  = 1.0
	// u1[2] = 2 + 0.25*(1 - 4 + 0)  = 1.25
	got, err := Reference(Config{TotalPoints: 3, PointsPerPartition: 1, TimeSteps: 1, Alpha: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.75, 1.0, 1.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("u1[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReferenceZeroStepsIsInitial(t *testing.T) {
	got, err := Reference(Config{TotalPoints: 5, PointsPerPartition: 5, TimeSteps: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != InitialValue(i) {
			t.Fatalf("u0[%d] = %v", i, v)
		}
	}
}

func newRT(t *testing.T, workers int) *taskrt.Runtime {
	t.Helper()
	rt := taskrt.New(taskrt.WithWorkers(workers))
	rt.Start()
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestNativeMatchesReference(t *testing.T) {
	cases := []Config{
		{TotalPoints: 100, PointsPerPartition: 10, TimeSteps: 8},
		{TotalPoints: 100, PointsPerPartition: 7, TimeSteps: 5},  // remainder
		{TotalPoints: 64, PointsPerPartition: 64, TimeSteps: 10}, // single partition
		{TotalPoints: 30, PointsPerPartition: 15, TimeSteps: 6},  // two partitions
		{TotalPoints: 9, PointsPerPartition: 1, TimeSteps: 4},    // point partitions
	}
	for _, cfg := range cases {
		rt := taskrt.New(taskrt.WithWorkers(3))
		rt.Start()
		sol, err := Run(rt, cfg)
		rt.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := sol.Flatten()
		if len(got) != len(want) {
			t.Fatalf("cfg %+v: length %d vs %d", cfg, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("cfg %+v: point %d: %v vs %v", cfg, i, got[i], want[i])
			}
		}
	}
}

func TestHeatConservationOnRing(t *testing.T) {
	cfg := Config{TotalPoints: 200, PointsPerPartition: 16, TimeSteps: 20}
	rt := newRT(t, 2)
	sol, err := Run(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := 0.0
	for i := 0; i < cfg.TotalPoints; i++ {
		initial += InitialValue(i)
	}
	if got := sol.Sum(); math.Abs(got-initial) > 1e-6*initial {
		t.Fatalf("heat not conserved: %v vs %v", got, initial)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	rt := newRT(t, 1)
	if _, err := Run(rt, Config{}); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := Reference(Config{}); err == nil {
		t.Fatal("bad config accepted by Reference")
	}
	if _, err := NewSimWorkload(Config{}); err == nil {
		t.Fatal("bad config accepted by NewSimWorkload")
	}
}

func TestSimWorkloadTaskCount(t *testing.T) {
	cases := []Config{
		{TotalPoints: 1000, PointsPerPartition: 100, TimeSteps: 7},  // 10 partitions
		{TotalPoints: 1000, PointsPerPartition: 1000, TimeSteps: 5}, // np = 1
		{TotalPoints: 1000, PointsPerPartition: 500, TimeSteps: 5},  // np = 2
		{TotalPoints: 1000, PointsPerPartition: 300, TimeSteps: 3},  // remainder
	}
	for _, cfg := range cases {
		wl, err := NewSimWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run(sim.Config{Profile: costmodel.Haswell(), Cores: 4}, wl)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if r.Tasks != wl.TotalTasks() {
			t.Fatalf("cfg %+v: ran %d tasks, want %d", cfg, r.Tasks, wl.TotalTasks())
		}
	}
}

func TestSimWorkloadWindowBookkeeping(t *testing.T) {
	// After a full run the waiting map must be empty (rows retired).
	cfg := Config{TotalPoints: 600, PointsPerPartition: 50, TimeSteps: 10}
	wl, err := NewSimWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(sim.Config{Profile: costmodel.Haswell(), Cores: 8}, wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.waiting) != 0 {
		t.Fatalf("waiting rows leaked: %d", len(wl.waiting))
	}
}

func TestSimWorkloadDeterministicShape(t *testing.T) {
	cfg := Config{TotalPoints: 400, PointsPerPartition: 40, TimeSteps: 6}
	mk := func() *sim.Result {
		wl, _ := NewSimWorkload(cfg)
		r, err := sim.Run(sim.Config{Profile: costmodel.Haswell(), Cores: 8}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(), mk()
	if a.MakespanNs != b.MakespanNs || a.PendingAccesses != b.PendingAccesses {
		t.Fatal("stencil sim not deterministic")
	}
}

// Property: native result equals reference for arbitrary small rings.
func TestQuickNativeEqualsReference(t *testing.T) {
	rt := taskrt.New(taskrt.WithWorkers(2))
	rt.Start()
	defer rt.Shutdown()
	f := func(n8, p8, s8 uint8) bool {
		n := int(n8%40) + 3
		pp := int(p8)%n + 1
		steps := int(s8 % 8)
		cfg := Config{TotalPoints: n, PointsPerPartition: pp, TimeSteps: steps}
		sol, err := Run(rt, cfg)
		if err != nil {
			return false
		}
		want, err := Reference(cfg)
		if err != nil {
			return false
		}
		got := sol.Flatten()
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: diffusion smooths — the max absolute deviation from the ring
// mean never increases with a diffusion step.
func TestQuickDiffusionContracts(t *testing.T) {
	f := func(n8, s8 uint8) bool {
		n := int(n8%50) + 3
		steps := int(s8%10) + 1
		cfg := Config{TotalPoints: n, PointsPerPartition: n, TimeSteps: steps}
		before, err := Reference(Config{TotalPoints: n, PointsPerPartition: n, TimeSteps: 0})
		if err != nil {
			return false
		}
		after, err := Reference(cfg)
		if err != nil {
			return false
		}
		dev := func(xs []float64) float64 {
			mean := 0.0
			for _, x := range xs {
				mean += x
			}
			mean /= float64(len(xs))
			max := 0.0
			for _, x := range xs {
				if d := math.Abs(x - mean); d > max {
					max = d
				}
			}
			return max
		}
		return dev(after) <= dev(before)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNativeStencilMedium(b *testing.B) {
	cfg := Config{TotalPoints: 100000, PointsPerPartition: 5000, TimeSteps: 10}
	for i := 0; i < b.N; i++ {
		rt := taskrt.New(taskrt.WithWorkers(2))
		rt.Start()
		if _, err := Run(rt, cfg); err != nil {
			b.Fatal(err)
		}
		rt.Shutdown()
	}
}

func BenchmarkSimStencilMedium(b *testing.B) {
	cfg := Config{TotalPoints: 1000000, PointsPerPartition: 10000, TimeSteps: 10}
	for i := 0; i < b.N; i++ {
		wl, _ := NewSimWorkload(cfg)
		if _, err := sim.Run(sim.Config{Profile: costmodel.Haswell(), Cores: 28}, wl); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSimWorkloadOwnerComputesPlacement(t *testing.T) {
	cfg := Config{TotalPoints: 10000, PointsPerPartition: 500, TimeSteps: 4}
	mk := func(place Placement) *sim.Result {
		wl, err := NewSimWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wl.Place = place
		r, err := sim.Run(sim.Config{Profile: costmodel.Haswell(), Cores: 4}, wl)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rr := mk(RoundRobin)
	oc := mk(OwnerComputes)
	if rr.Tasks != oc.Tasks {
		t.Fatalf("task counts differ: %d vs %d", rr.Tasks, oc.Tasks)
	}
	// Placement changes the schedule, so some observable differs.
	if rr.MakespanNs == oc.MakespanNs && rr.Stolen == oc.Stolen &&
		rr.PendingAccesses == oc.PendingAccesses {
		t.Fatal("placement had no observable effect")
	}
	// Determinism per placement mode.
	if again := mk(OwnerComputes); again.MakespanNs != oc.MakespanNs {
		t.Fatal("owner-computes run not deterministic")
	}
}

// HeatInto is the kernel heatPart wraps and the serving runner calls on its
// rings: on random partitions it must equal heatPart and the per-point
// definition over the concatenated neighbourhood bit for bit, and write
// exactly len(mid) points.
func TestHeatIntoMatchesHeatPart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPart := func(n int) Partition {
		p := make(Partition, n)
		for i := range p {
			p[i] = rng.NormFloat64() * 100
		}
		return p
	}
	for _, n := range []int{1, 2, 257} {
		for trial := 0; trial < 20; trial++ {
			left, mid, right := randPart(1+rng.Intn(4)), randPart(n), randPart(1+rng.Intn(4))
			alpha := 0.5 * rng.Float64()
			want := heatPart(left, mid, right, alpha)

			out := make([]float64, n+1)
			out[n] = -1 // sentinel past the partition
			HeatInto(left[len(left)-1], mid, right[0], out, alpha)
			if out[n] != -1 {
				t.Fatalf("n=%d: HeatInto wrote past len(mid)", n)
			}
			flat := append(append([]float64{left[len(left)-1]}, mid...), right[0])
			for i := 0; i < n; i++ {
				if out[i] != want[i] {
					t.Fatalf("n=%d point %d: HeatInto %v, heatPart %v", n, i, out[i], want[i])
				}
				if def := heatPoint(flat[i], flat[i+1], flat[i+2], alpha); out[i] != def {
					t.Fatalf("n=%d point %d: HeatInto %v, definition %v", n, i, out[i], def)
				}
			}
		}
	}
}
