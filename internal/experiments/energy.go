package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// EnergySizes are the workload sizes of the energy study.
var EnergySizes = []int{25, 50, 100}

// DefaultIdleSleep is the idle timeout before free nodes drop to the
// shallow sleep state in the energy experiments: long enough that nodes
// do not thrash across back-to-back jobs, short against job runtimes.
const DefaultIdleSleep = 120 * sim.Second

// EnergyRow compares one workload under three regimes on the same
// 65-node machine with power accounting and idle sleep enabled: rigid
// (no malleability), malleable under Algorithm 1 (throughput-biased),
// and malleable under the energy-aware policy.
type EnergyRow struct {
	Jobs      int
	Rigid     *metrics.WorkloadResult
	Malleable *metrics.WorkloadResult
	Aware     *metrics.WorkloadResult
}

// RigidKJ returns the rigid run's total cluster energy in kilojoules.
func (r EnergyRow) RigidKJ() float64 { return r.Rigid.EnergyJ / 1e3 }

// MalleableGainPct is the energy saved by plain malleability.
func (r EnergyRow) MalleableGainPct() float64 {
	return metrics.GainPct(r.Rigid.EnergyJ, r.Malleable.EnergyJ)
}

// AwareGainPct is the energy saved by the energy-aware policy.
func (r EnergyRow) AwareGainPct() float64 {
	return metrics.GainPct(r.Rigid.EnergyJ, r.Aware.EnergyJ)
}

// energyConfig builds the experiment system: idle nodes sleeping after
// DefaultIdleSleep, and the requested policy variant.
func energyConfig(aware bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.SleepLadder = []slurm.SleepRung{{AfterIdle: DefaultIdleSleep}}
	if aware {
		cfg.Policy = core.EnergyAware
	}
	return cfg
}

// Energy runs the rigid-vs-malleable energy comparison: the same seeded
// realistic workload (CG, Jacobi, N-body) executed rigid, malleable
// under Algorithm 1, and malleable under the energy-aware policy,
// reporting total cluster energy over each run's own makespan.
func Energy(sizes []int, seed int64) []EnergyRow {
	var out []EnergyRow
	for _, n := range sizes {
		specs := workload.Generate(workload.Realistic(n, seed))
		out = append(out, EnergyRow{
			Jobs:      n,
			Rigid:     core.RunWorkload(energyConfig(false), workload.SetFlexible(specs, false)),
			Malleable: core.RunWorkload(energyConfig(false), workload.SetFlexible(specs, true)),
			Aware:     core.RunWorkload(energyConfig(true), workload.SetFlexible(specs, true)),
		})
	}
	return out
}

// FormatEnergy renders the energy comparison: total energy, mean draw
// and makespan per regime, with savings relative to rigid.
func FormatEnergy(rows []EnergyRow) string {
	var b strings.Builder
	b.WriteString("Energy: rigid vs malleable vs energy-aware policy (same seeded workload)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %8s %8s %10s %10s %10s\n",
		"jobs", "rigid(kJ)", "mall(kJ)", "aware(kJ)", "mgain%", "again%",
		"rigid(W)", "mall(W)", "aware(W)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12.0f %12.0f %12.0f %8.2f %8.2f %10.0f %10.0f %10.0f\n",
			r.Jobs, r.Rigid.EnergyJ/1e3, r.Malleable.EnergyJ/1e3, r.Aware.EnergyJ/1e3,
			r.MalleableGainPct(), r.AwareGainPct(),
			r.Rigid.AvgPowerW, r.Malleable.AvgPowerW, r.Aware.AvgPowerW)
	}
	b.WriteString("per-job energy (kJ/job) and makespan (s):\n")
	fmt.Fprintf(&b, "%6s %12s %12s %12s %10s %10s %10s\n",
		"jobs", "rigid", "mall", "aware", "rigid(s)", "mall(s)", "aware(s)")
	for _, r := range rows {
		perJob := func(res *metrics.WorkloadResult) float64 {
			return res.EnergyJ / 1e3 / float64(res.Jobs)
		}
		fmt.Fprintf(&b, "%6d %12.1f %12.1f %12.1f %10.0f %10.0f %10.0f\n",
			r.Jobs, perJob(r.Rigid), perJob(r.Malleable), perJob(r.Aware),
			r.Rigid.Makespan.Seconds(), r.Malleable.Makespan.Seconds(), r.Aware.Makespan.Seconds())
	}
	return b.String()
}
