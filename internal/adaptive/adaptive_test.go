package adaptive

import (
	"testing"
	"testing/quick"

	"taskgrain/internal/core"
	"taskgrain/internal/costmodel"
	"taskgrain/internal/stencil"
)

func newTuner(t *testing.T, cfg Config) *Tuner {
	t.Helper()
	tn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MinPartition: 0, MaxPartition: 10}); err == nil {
		t.Error("MinPartition 0 accepted")
	}
	if _, err := New(Config{MinPartition: 10, MaxPartition: 5}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := New(Config{MinPartition: 1, MaxPartition: 10, HighIdle: 1.5}); err == nil {
		t.Error("HighIdle out of range accepted")
	}
	if _, err := New(Config{MinPartition: 1, MaxPartition: 10, Growth: 0.5}); err == nil {
		t.Error("Growth <= 1 accepted")
	}
	if _, err := New(Config{MinPartition: 1, MaxPartition: 10, MinTasksPerCore: -1}); err == nil {
		t.Error("negative MinTasksPerCore accepted")
	}
	if _, err := New(Config{MinPartition: 1, MaxPartition: 10}); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestDecisions(t *testing.T) {
	tn := newTuner(t, Config{MinPartition: 100, MaxPartition: 1 << 20})
	// Left wall: plenty of tasks, high idle → grow.
	next, dec := tn.Next(Observation{PartitionSize: 1000, IdleRate: 0.8, Tasks: 10000, Cores: 8})
	if dec != Grow || next != 2000 {
		t.Errorf("left wall: %v %d", dec, next)
	}
	// Right wall: too few tasks → shrink, even though idle is also high.
	next, dec = tn.Next(Observation{PartitionSize: 1 << 18, IdleRate: 0.9, Tasks: 10, Cores: 8})
	if dec != Shrink || next != 1<<17 {
		t.Errorf("right wall: %v %d", dec, next)
	}
	// In band → keep.
	next, dec = tn.Next(Observation{PartitionSize: 4000, IdleRate: 0.1, Tasks: 5000, Cores: 8})
	if dec != Keep || next != 4000 {
		t.Errorf("in band: %v %d", dec, next)
	}
}

func TestClampingAtBounds(t *testing.T) {
	tn := newTuner(t, Config{MinPartition: 1000, MaxPartition: 8000})
	// Already at max, wants to grow → keep (clamped).
	next, dec := tn.Next(Observation{PartitionSize: 8000, IdleRate: 0.9, Tasks: 1e6, Cores: 4})
	if dec != Keep || next != 8000 {
		t.Errorf("max clamp: %v %d", dec, next)
	}
	// Already at min, wants to shrink → keep.
	next, dec = tn.Next(Observation{PartitionSize: 1000, IdleRate: 0.9, Tasks: 1, Cores: 4})
	if dec != Keep || next != 1000 {
		t.Errorf("min clamp: %v %d", dec, next)
	}
	// Out-of-bounds input is clamped before deciding.
	next, _ = tn.Next(Observation{PartitionSize: 50, IdleRate: 0, Tasks: 1e6, Cores: 1})
	if next != 1000 {
		t.Errorf("input clamp: %d", next)
	}
}

func TestDecisionString(t *testing.T) {
	if Keep.String() != "keep" || Grow.String() != "grow" || Shrink.String() != "shrink" {
		t.Error("decision names")
	}
	if Decision(9).String() == "" {
		t.Error("unknown decision name empty")
	}
}

// simMeasure builds a measurement closure over the simulated Haswell.
func simMeasure(t *testing.T, cores int) func(partition int) (Observation, error) {
	t.Helper()
	eng := core.NewSimEngine(costmodel.Haswell())
	return func(partition int) (Observation, error) {
		raw, err := eng.Run(stencil.Config{
			TotalPoints:        1_000_000,
			PointsPerPartition: partition,
			TimeSteps:          5,
		}, cores)
		if err != nil {
			return Observation{}, err
		}
		partitions := (1_000_000 + partition - 1) / partition
		return Observation{
			PartitionSize: partition,
			IdleRate:      raw.IdleRate(),
			Tasks:         float64(partitions), // parallel slack per step
			Cores:         cores,
		}, nil
	}
}

func TestConvergeFromFineGrain(t *testing.T) {
	tn := newTuner(t, Config{MinPartition: 100, MaxPartition: 1_000_000})
	final, trace, err := tn.Converge(100, 30, simMeasure(t, 28))
	if err != nil {
		t.Fatalf("%v (trace %v)", err, trace)
	}
	if final <= 100 {
		t.Fatalf("did not coarsen from the left wall: %d", final)
	}
	// Converged grain must be in the paper's acceptable band: idle ≤ 30%
	// with enough tasks to feed 28 cores.
	last := trace[len(trace)-1].Observation
	if last.IdleRate > 0.30 {
		t.Errorf("converged idle-rate %v > 0.30 at %d", last.IdleRate, final)
	}
}

func TestConvergeFromCoarseGrain(t *testing.T) {
	tn := newTuner(t, Config{MinPartition: 100, MaxPartition: 1_000_000})
	final, trace, err := tn.Converge(1_000_000, 30, simMeasure(t, 28))
	if err != nil {
		t.Fatalf("%v (trace %v)", err, trace)
	}
	if final >= 1_000_000 {
		t.Fatalf("did not refine from the right wall: %d", final)
	}
	first := trace[0]
	if first.Decision != Shrink {
		t.Errorf("first decision from 1-partition grain = %v, want shrink", first.Decision)
	}
}

func TestConvergeReportsMeasureError(t *testing.T) {
	tn := newTuner(t, Config{MinPartition: 1, MaxPartition: 10})
	_, _, err := tn.Converge(5, 3, func(int) (Observation, error) {
		return Observation{}, errSentinel
	})
	if err != errSentinel {
		t.Fatalf("err = %v", err)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestConvergeGivesUp(t *testing.T) {
	tn := newTuner(t, Config{MinPartition: 1, MaxPartition: 1 << 30})
	// Pathological observation that always wants to grow.
	_, _, err := tn.Converge(1, 4, func(p int) (Observation, error) {
		return Observation{PartitionSize: p, IdleRate: 0.99, Tasks: 1e9, Cores: 1}, nil
	})
	if err == nil {
		t.Fatal("expected non-convergence error")
	}
}

// Property: Next always returns a size within bounds, and Keep implies the
// size is unchanged.
func TestQuickNextBounded(t *testing.T) {
	tn := newTuner(t, Config{MinPartition: 64, MaxPartition: 65536})
	f := func(p uint32, idle10 uint8, tasks uint16, cores uint8) bool {
		obs := Observation{
			PartitionSize: int(p % (1 << 20)),
			IdleRate:      float64(idle10%11) / 10,
			Tasks:         float64(tasks),
			Cores:         int(cores%32) + 1,
		}
		next, dec := tn.Next(obs)
		if next < 64 || next > 65536 {
			return false
		}
		if dec == Keep && obs.PartitionSize >= 64 && obs.PartitionSize <= 65536 && next != obs.PartitionSize {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
