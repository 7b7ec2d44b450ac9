package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The fault-tolerance study: the same seeded realistic workload under a
// deterministic node-failure model, swept over per-node MTBF, executed
// three ways — rigid jobs restarted from scratch on every crash, rigid
// jobs protected by periodic application checkpoints, and malleable
// jobs that shrink onto the surviving nodes at the next reconfiguring
// point. The injector's RNG stream is independent of the workload
// generator's, so all three regimes face the byte-identical failure
// schedule; the table isolates what each recovery strategy does with
// it: lost work, requeue churn, makespan and energy.

// FaultJobs is the workload size of the fault study.
const FaultJobs = 20

// FaultMTBFs is the per-node MTBF sweep, harsh to mild against the
// study's few-thousand-second makespans on the 65-node machine.
var FaultMTBFs = []sim.Time{
	20000 * sim.Second,
	40000 * sim.Second,
	80000 * sim.Second,
}

// FaultMTTR is the mean repair time: long enough that a dead node is
// felt, short against the makespan so capacity returns within the run.
const FaultMTTR = 600 * sim.Second

// FaultCkptEvery is the periodic-checkpoint cadence (iterations) of the
// rigid+ckpt regime: roughly one CG/Jacobi inhibitor span of work
// between checkpoints. Short-iteration classes (FS, N-body) finish
// before the first checkpoint and effectively run unprotected.
const FaultCkptEvery = 1000

// FaultHorizon bounds crash injection well past any regime's makespan;
// failures after a regime's last job land on an idle cluster.
const FaultHorizon = 30000 * sim.Second

// FaultRegimes is the fixed regime order of every row.
var FaultRegimes = []string{"rigid", "rigid+ckpt", "malleable"}

// FaultRun is one recovery regime under one MTBF.
type FaultRun struct {
	Regime string
	Res    *metrics.WorkloadResult
	Stats  slurm.Stats
}

// FaultRow is one MTBF level: the three regimes over the identical
// injected failure schedule.
type FaultRow struct {
	MTBF sim.Time
	Jobs int
	Runs []FaultRun // in FaultRegimes order
}

// faultConfig builds the study's system: idle nodes sleeping after
// DefaultIdleSleep, the injector at one MTBF, and the regime's
// checkpoint cadence.
func faultConfig(mtbf sim.Time, ckptEvery int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.SleepLadder = []slurm.SleepRung{{AfterIdle: DefaultIdleSleep}}
	cfg.Faults = &faults.Config{
		MTBF:    mtbf,
		MTTR:    FaultMTTR,
		Horizon: FaultHorizon,
		Seed:    seed,
	}
	cfg.CkptEvery = ckptEvery
	return cfg
}

// runFaults executes one workload and collects the fault counters.
func runFaults(cfg core.Config, specs []workload.Spec) (*metrics.WorkloadResult, slurm.Stats) {
	s := core.NewSystem(cfg)
	s.SubmitAll(specs)
	res := s.Run()
	return res, s.Ctl.Stats()
}

// Faults runs the MTBF sweep over the three recovery regimes.
func Faults(jobs int, mtbfs []sim.Time, seed int64) []FaultRow {
	var rows []FaultRow
	for _, mtbf := range mtbfs {
		specs := workload.Generate(workload.Realistic(jobs, seed))
		row := FaultRow{MTBF: mtbf, Jobs: jobs}
		for _, regime := range FaultRegimes {
			ckpt := 0
			if regime == "rigid+ckpt" {
				ckpt = FaultCkptEvery
			}
			flexible := regime == "malleable"
			res, fs := runFaults(faultConfig(mtbf, ckpt, seed),
				workload.SetFlexible(specs, flexible))
			row.Runs = append(row.Runs, FaultRun{Regime: regime, Res: res, Stats: fs})
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFaults renders the study: per MTBF, the three regimes' makespan,
// energy, and what the failure schedule cost each of them.
func FormatFaults(rows []FaultRow) string {
	var b strings.Builder
	b.WriteString("Faults: rigid restart vs rigid+checkpoint vs malleable shrink-to-survive (same injected failure schedule)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "MTBF %.0f s/node, %d jobs:\n", r.MTBF.Seconds(), r.Jobs)
		fmt.Fprintf(&b, "  %-12s %10s %12s %9s %9s %9s %12s\n",
			"regime", "mkspan(s)", "energy(kJ)", "failures", "requeues", "shrinks", "lostwork(s)")
		for _, run := range r.Runs {
			fmt.Fprintf(&b, "  %-12s %10.0f %12.0f %9d %9d %9d %12.1f\n",
				run.Regime, run.Res.Makespan.Seconds(), run.Res.EnergyJ/1e3,
				run.Stats.Failures, run.Stats.Requeues, run.Stats.Shrinks,
				run.Stats.LostWorkS)
		}
	}
	return b.String()
}

// WriteFaultsSummaryCSV writes the study as one CSV row per regime per
// MTBF — the golden-pinned artifact of the -exp faults command.
func WriteFaultsSummaryCSV(w io.Writer, rows []FaultRow) error {
	if _, err := fmt.Fprintln(w, "mtbf_s,jobs,regime,makespan_s,energy_j,failures,requeues,shrinks,boot_fails,lost_work_s"); err != nil {
		return err
	}
	for _, r := range rows {
		for _, run := range r.Runs {
			if _, err := fmt.Fprintf(w, "%.0f,%d,%s,%.3f,%.1f,%d,%d,%d,%d,%.1f\n",
				r.MTBF.Seconds(), r.Jobs, run.Regime,
				run.Res.Makespan.Seconds(), run.Res.EnergyJ,
				run.Stats.Failures, run.Stats.Requeues, run.Stats.Shrinks,
				run.Stats.BootFails, run.Stats.LostWorkS); err != nil {
				return err
			}
		}
	}
	return nil
}
