// Package experiments contains one driver per table and figure of the
// paper's evaluation (§VIII preliminary study and §IX experimental
// results), each runnable from the experiments command or the benchmark
// suite. Drivers accept workload sizes so benches can run scaled-down
// versions; the command runs the paper's full dimensions.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultSeed keeps every experiment deterministic ("a fixed seed",
// §IX-A).
const DefaultSeed = 20170814 // ICPP 2017 began August 14

// Comparison is one fixed-vs-flexible workload pair.
type Comparison struct {
	Jobs     int
	Fixed    *metrics.WorkloadResult
	Flexible *metrics.WorkloadResult
}

// MakespanGain is the paper's "gain": percent reduction of the workload
// execution time.
func (c Comparison) MakespanGain() float64 {
	return metrics.GainPct(c.Fixed.Makespan.Seconds(), c.Flexible.Makespan.Seconds())
}

// WaitGain is the percent reduction of the average job waiting time.
func (c Comparison) WaitGain() float64 {
	return metrics.GainPct(c.Fixed.AvgWait.Seconds(), c.Flexible.AvgWait.Seconds())
}

// runPair executes the same workload in fixed and flexible mode.
func runPair(cfg core.Config, specs []workload.Spec) Comparison {
	fixed := core.RunWorkload(cfg, workload.SetFlexible(specs, false))
	flex := core.RunWorkload(cfg, workload.SetFlexible(specs, true))
	return Comparison{Jobs: len(specs), Fixed: fixed, Flexible: flex}
}

// preliminaryConfig is the §VIII testbed: 20 nodes, FS jobs.
func preliminaryConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = 20
	return cfg
}

// realisticConfig is the §IX testbed: the full 65-node machine.
func realisticConfig() core.Config {
	return core.DefaultConfig()
}

// FormatComparisons renders a gain table like the bar labels of
// Figures 3, 7 and 10.
func FormatComparisons(title string, cs []Comparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%8s %14s %14s %8s %10s %10s %8s\n",
		"jobs", "fixed(s)", "flexible(s)", "gain%", "waitF(s)", "waitX(s)", "wgain%")
	for _, c := range cs {
		fmt.Fprintf(&b, "%8d %14.0f %14.0f %8.2f %10.0f %10.0f %8.2f\n",
			c.Jobs, c.Fixed.Makespan.Seconds(), c.Flexible.Makespan.Seconds(), c.MakespanGain(),
			c.Fixed.AvgWait.Seconds(), c.Flexible.AvgWait.Seconds(), c.WaitGain())
	}
	return b.String()
}

// secondsCell formats a duration in whole seconds for tables.
func secondsCell(t sim.Time) string { return fmt.Sprintf("%.2f s.", t.Seconds()) }
