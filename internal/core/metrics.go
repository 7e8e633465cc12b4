// Package core implements the paper's primary contribution: the methodology
// for characterizing task-scheduling overheads as a function of task
// granularity, and the metrics that locate a good grain size at runtime
// (Sec. II-A):
//
//	Eq. 1  idle-rate        Ir = (Σt_func − Σt_exec) / Σt_func
//	Eq. 2  task duration    t_d = Σt_exec / n_t
//	Eq. 3  task overhead    t_o = (Σt_func − Σt_exec) / n_t
//	Eq. 4  TM overhead/core T_o = t_o · n_t / n_c
//	Eq. 5  wait per task    t_w = t_d − t_d1
//	Eq. 6  wait per core    T_w = (t_d − t_d1) · n_t / n_c
//
// plus the timestamp-free alternative — pending-queue accesses/misses — and
// the two grain-size selectors the paper evaluates: an idle-rate tolerance
// threshold (Sec. IV-A) and the pending-queue-access minimum (Sec. IV-E).
//
// The package is engine-agnostic: measurements come from either the native
// runtime (taskrt + stencil.Run) or the discrete-event simulator, both
// adapted to the Engine interface.
package core

import (
	"fmt"
	"math"
	"time"

	"taskgrain/internal/counters"
)

// RawRun is the counter dump of one benchmark execution — everything the
// metrics of the study are derived from.
type RawRun struct {
	ExecSeconds float64 // benchmark wall time

	ExecTotalNs float64 // Σ t_exec
	FuncTotalNs float64 // Σ t_func
	Tasks       float64 // n_t
	Cores       int     // n_c

	PendingAccesses float64
	PendingMisses   float64
	StagedAccesses  float64
	StagedMisses    float64
	Stolen          float64
}

// RawRunFromSnapshot builds the RawRun of one native run from the counter
// snapshot taken when it completed, on cores workers, elapsed wall time.
func RawRunFromSnapshot(snap counters.Snapshot, cores int, elapsed time.Duration) RawRun {
	return RawRun{
		ExecSeconds:     elapsed.Seconds(),
		ExecTotalNs:     snap.Get(counters.TimeExecTotal),
		FuncTotalNs:     snap.Get(counters.TimeFuncTotal),
		Tasks:           snap.Get(counters.CountCumulative),
		Cores:           cores,
		PendingAccesses: snap.Get(counters.PendingAccesses),
		PendingMisses:   snap.Get(counters.PendingMisses),
		StagedAccesses:  snap.Get(counters.StagedAccesses),
		StagedMisses:    snap.Get(counters.StagedMisses),
		Stolen:          snap.Get(counters.CountStolen),
	}
}

// Validate reports the first inconsistency in the raw counters, or nil.
func (r *RawRun) Validate() error {
	switch {
	case r.Cores < 1:
		return fmt.Errorf("core: RawRun.Cores = %d", r.Cores)
	case r.ExecSeconds < 0 || r.ExecTotalNs < 0 || r.FuncTotalNs < 0 || r.Tasks < 0:
		return fmt.Errorf("core: negative raw measurement: %+v", r)
	case r.PendingMisses > r.PendingAccesses:
		return fmt.Errorf("core: pending misses %v > accesses %v", r.PendingMisses, r.PendingAccesses)
	case r.StagedMisses > r.StagedAccesses:
		return fmt.Errorf("core: staged misses %v > accesses %v", r.StagedMisses, r.StagedAccesses)
	}
	return nil
}

// IdleRate computes Eq. 1. Runs with no scheduler time report 0.
func (r *RawRun) IdleRate() float64 { return counters.IdleRateOf(r.ExecTotalNs, r.FuncTotalNs) }

// TaskDurationNs computes Eq. 2 (t_d), in nanoseconds.
func (r *RawRun) TaskDurationNs() float64 {
	if r.Tasks <= 0 {
		return 0
	}
	return r.ExecTotalNs / r.Tasks
}

// TaskOverheadNs computes Eq. 3 (t_o), in nanoseconds.
func (r *RawRun) TaskOverheadNs() float64 {
	if r.Tasks <= 0 {
		return 0
	}
	to := (r.FuncTotalNs - r.ExecTotalNs) / r.Tasks
	if to < 0 {
		return 0
	}
	return to
}

// TMOverheadPerCoreNs computes Eq. 4 (T_o), in nanoseconds: the total
// HPX-thread-management time per core, comparable to the execution time.
func (r *RawRun) TMOverheadPerCoreNs() float64 {
	return r.TaskOverheadNs() * r.Tasks / float64(r.Cores)
}

// WaitPerTaskNs computes Eq. 5 (t_w) given td1, the one-core task duration
// of the same configuration (from Calibration). Wait time may legitimately
// be negative for very coarse grains (Sec. IV-C).
func (r *RawRun) WaitPerTaskNs(td1Ns float64) float64 {
	return r.TaskDurationNs() - td1Ns
}

// WaitPerCoreNs computes Eq. 6 (T_w), in nanoseconds.
func (r *RawRun) WaitPerCoreNs(td1Ns float64) float64 {
	return r.WaitPerTaskNs(td1Ns) * r.Tasks / float64(r.Cores)
}

// Calibration maps partition size → t_d1 (average task duration measured on
// one core), the reference the wait-time metric needs. The paper takes it
// "at a one time cost prior to data runs" (Sec. II-A).
type Calibration map[int]float64

// Td1 returns the calibrated one-core task duration for a partition size.
// Missing sizes are interpolated log-linearly between the nearest calibrated
// neighbours (and clamped at the extremes), so a sweep can calibrate a
// subset of sizes.
func (c Calibration) Td1(partitionSize int) (float64, error) {
	if len(c) == 0 {
		return 0, fmt.Errorf("core: empty calibration")
	}
	if td1, ok := c[partitionSize]; ok {
		return td1, nil
	}
	// Nearest below and above in log space.
	lo, hi := 0, 0
	for sz := range c {
		if sz <= partitionSize && (lo == 0 || sz > lo) {
			lo = sz
		}
		if sz >= partitionSize && (hi == 0 || sz < hi) {
			hi = sz
		}
	}
	switch {
	case lo == 0:
		return c[hi], nil
	case hi == 0:
		return c[lo], nil
	case lo == hi:
		return c[lo], nil
	}
	t := (math.Log(float64(partitionSize)) - math.Log(float64(lo))) /
		(math.Log(float64(hi)) - math.Log(float64(lo)))
	return c[lo]*(1-t) + c[hi]*t, nil
}
