// Command energy demonstrates the energy accounting subsystem: the same
// small seeded workload is run rigid, malleable (Algorithm 1) and
// malleable under the energy-aware policy, with per-node power metering
// and idle-node sleep, and the joules/throughput summary is printed.
//
// Usage:
//
//	go run ./examples/energy [-jobs N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

func main() {
	jobs := flag.Int("jobs", 15, "workload size")
	seed := flag.Int64("seed", 20170814, "workload seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if *jobs < 1 {
		fmt.Fprintln(os.Stderr, "-jobs must be at least 1")
		os.Exit(2)
	}

	specs := workload.Generate(workload.Realistic(*jobs, *seed))
	runCfg := func(aware bool, flexible bool) *metrics.WorkloadResult {
		cfg := core.DefaultConfig()
		cfg.SleepLadder = []slurm.SleepRung{{AfterIdle: 120 * sim.Second}}
		if aware {
			cfg.Policy = core.EnergyAware
		}
		return core.RunWorkload(cfg, workload.SetFlexible(specs, flexible))
	}
	rigid := runCfg(false, false)
	malleable := runCfg(false, true)
	aware := runCfg(true, true)

	fmt.Printf("%d-job realistic workload (CG/Jacobi/N-body), 65 nodes, idle sleep after 120 s\n\n", *jobs)
	fmt.Printf("%-14s %12s %12s %12s %14s %12s\n",
		"regime", "energy (kJ)", "saved %", "avg draw W", "makespan (s)", "kJ per job")
	row := func(name string, res *metrics.WorkloadResult) {
		fmt.Printf("%-14s %12.0f %12.2f %12.0f %14.0f %12.1f\n",
			name, res.EnergyJ/1e3, metrics.GainPct(rigid.EnergyJ, res.EnergyJ),
			res.AvgPowerW, res.Makespan.Seconds(), res.EnergyJ/1e3/float64(res.Jobs))
	}
	row("rigid", rigid)
	row("malleable", malleable)
	row("energy-aware", aware)

	fmt.Printf("\nthroughput: rigid %.2f jobs/h | malleable %.2f | energy-aware %.2f\n",
		perHour(rigid), perHour(malleable), perHour(aware))
	fmt.Printf("energy per unit throughput: rigid %.0f kJ·h | malleable %.0f | energy-aware %.0f\n",
		rigid.EnergyJ/1e3/perHour(rigid), malleable.EnergyJ/1e3/perHour(malleable),
		aware.EnergyJ/1e3/perHour(aware))
}

// perHour returns completed jobs per hour of makespan.
func perHour(res *metrics.WorkloadResult) float64 {
	return float64(res.Jobs) / (res.Makespan.Seconds() / 3600)
}
