package counters_test

import (
	"fmt"

	"taskgrain/internal/counters"
)

// Example shows the counter registry: named counters, derived formulas, and
// interval snapshots — the introspection surface the granularity
// methodology is built on.
func Example() {
	reg := counters.NewRegistry()
	exec := counters.NewCumulative(counters.TimeExecTotal)
	fn := counters.NewCumulative(counters.TimeFuncTotal)
	reg.MustRegister(exec)
	reg.MustRegister(fn)
	reg.MustRegister(counters.NewDerived(counters.IdleRate, func() float64 {
		return counters.IdleRateOf(exec.Value(), fn.Value())
	}))

	before := reg.Snapshot()
	exec.Add(750)
	fn.Add(1000)
	after := reg.Snapshot()

	idle, _ := reg.Value(counters.IdleRate)
	fmt.Printf("idle-rate %.2f\n", idle)
	fmt.Printf("interval exec %v\n", after.Sub(before).Get(counters.TimeExecTotal))
	// Output:
	// idle-rate 0.25
	// interval exec 750
}
