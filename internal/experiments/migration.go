package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The live-migration study: the same seeded sparse workload on a mixed
// Xeon/efficiency fleet with the stock sleep ladder, once with the
// migration pass off and once with it on. Placement is class-blind —
// today's behavior on heterogeneous hardware — so jobs land wherever
// nodes are free: some straddle classes and step at the slowest one,
// and off-peak stragglers pin premium racks awake. The migration pass
// cleans both up through checkpoint/restart moves (defragment onto a
// pure class, consolidate onto the efficiency class when the queue is
// empty), paying the modeled C/R cost each time. The table answers
// whether the moves' energy savings survive that honestly-charged
// price without giving up makespan.

// MigrationJobs is the workload size of the full migration study.
const MigrationJobs = 60

// MigrationFastNodes is the reference-class share of the 65-node
// testbed: the headline near-50:50 split of the mixed-fleet study.
const MigrationFastNodes = 33

// MigrationPatterns is the arrival-shape sweep. Both shapes have real
// lulls (elasticParams stretches the mean arrival), which is when the
// consolidate reason is allowed to fire.
var MigrationPatterns = []string{"diurnal", "bursty"}

// MigrationRun is one workload execution with or without the pass.
type MigrationRun struct {
	Res   *metrics.WorkloadResult
	Stats slurm.Stats
}

// MigrationRow compares one arrival shape: migration off vs on over
// the identical job stream and fleet.
type MigrationRow struct {
	Pattern   string // "diurnal" or "bursty"
	Jobs      int
	FastNodes int
	SlowNodes int
	Off       MigrationRun
	On        MigrationRun
}

// EnergyGainPct is the energy saved by the migration pass relative to
// the migration-off run.
func (r MigrationRow) EnergyGainPct() float64 {
	return metrics.GainPct(r.Off.Res.EnergyJ, r.On.Res.EnergyJ)
}

// MakespanDeltaPct is the makespan change the pass imposes (positive:
// the migrated run finished later).
func (r MigrationRow) MakespanDeltaPct() float64 {
	return -metrics.GainPct(r.Off.Res.Makespan.Seconds(), r.On.Res.Makespan.Seconds())
}

// migrationConfig builds the study's system: the stock sleep ladder on
// the mixed fleet, class-blind placement, and the migration pass when
// mig is non-nil. The stock selection policy doubles as the migration
// picker.
func migrationConfig(mig *slurm.MigrationConfig) core.Config {
	cfg := core.DefaultConfig()
	cfg.SleepLadder = slurm.DefaultSleepLadder()
	pc := mixedPlatform(MigrationFastNodes)
	cfg.Platform = &pc
	cfg.Migration = mig
	return cfg
}

// runMigrationStudy executes one workload and collects the pass's
// accounting.
func runMigrationStudy(cfg core.Config, specs []workload.Spec) MigrationRun {
	s := core.NewSystem(cfg)
	s.SubmitAll(specs)
	run := MigrationRun{Res: s.Run()}
	run.Stats = s.Ctl.Stats()
	return run
}

// Migration runs the off-vs-on comparison over the given arrival
// shapes (nil: the full MigrationPatterns sweep). Jobs are run rigid:
// the study isolates scheduler-driven migration from job malleability,
// and rigid codes are exactly the ones malleability cannot help. An
// unknown pattern name returns an error before anything runs.
func Migration(jobs int, patterns []string, seed int64) ([]MigrationRow, error) {
	if patterns == nil {
		patterns = MigrationPatterns
	}
	var rows []MigrationRow
	for _, pattern := range patterns {
		params, err := elasticParams(jobs, pattern, seed)
		if err != nil {
			return nil, err
		}
		specs := workload.SetFlexible(workload.Generate(params), false)
		pc := mixedPlatform(MigrationFastNodes)
		row := MigrationRow{
			Pattern: pattern, Jobs: jobs,
			FastNodes: pc.Classes[0].Count, SlowNodes: pc.Classes[1].Count,
		}
		row.Off = runMigrationStudy(migrationConfig(nil), specs)
		row.On = runMigrationStudy(migrationConfig(&slurm.MigrationConfig{}), specs)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatMigration renders the study as a table: one off and one on row
// per arrival shape.
func FormatMigration(rows []MigrationRow) string {
	var b strings.Builder
	b.WriteString("Live migration: class-blind mixed fleet with sleep ladder, migration pass off vs on (same seeded workload, rigid jobs)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s arrivals, %d jobs, fleet %d:%d:\n",
			r.Pattern, r.Jobs, r.FastNodes, r.SlowNodes)
		fmt.Fprintf(&b, "  %-10s %12s %8s %10s %12s %8s %8s %10s\n",
			"regime", "energy(kJ)", "gain%", "mkspan(s)", "avgwait(s)", "orders", "moves", "cost(s)")
		fmt.Fprintf(&b, "  %-10s %12.0f %8s %10.0f %12.0f %8s %8s %10s\n",
			"off", r.Off.Res.EnergyJ/1e3, "-",
			r.Off.Res.Makespan.Seconds(), r.Off.Res.AvgWait.Seconds(), "-", "-", "-")
		fmt.Fprintf(&b, "  %-10s %12.0f %8.2f %10.0f %12.0f %8d %8d %10.1f\n",
			"migrate", r.On.Res.EnergyJ/1e3, r.EnergyGainPct(),
			r.On.Res.Makespan.Seconds(), r.On.Res.AvgWait.Seconds(),
			r.On.Stats.MigrationOrders, r.On.Stats.Migrations, r.On.Stats.MigratedS)
	}
	return b.String()
}

// WriteMigrationSummaryCSV writes the study as one CSV row per regime —
// the golden-pinned artifact of the -exp migration command.
func WriteMigrationSummaryCSV(w io.Writer, rows []MigrationRow) error {
	if _, err := fmt.Fprintln(w, "pattern,jobs,fast_nodes,slow_nodes,regime,energy_j,makespan_s,avg_wait_s,p95_wait_s,orders,migrations,migrated_s"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,off,%.1f,%.3f,%.3f,%.3f,,,\n",
			r.Pattern, r.Jobs, r.FastNodes, r.SlowNodes,
			r.Off.Res.EnergyJ, r.Off.Res.Makespan.Seconds(),
			r.Off.Res.AvgWait.Seconds(), r.Off.Res.P95Wait.Seconds()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,migrate,%.1f,%.3f,%.3f,%.3f,%d,%d,%.1f\n",
			r.Pattern, r.Jobs, r.FastNodes, r.SlowNodes,
			r.On.Res.EnergyJ, r.On.Res.Makespan.Seconds(),
			r.On.Res.AvgWait.Seconds(), r.On.Res.P95Wait.Seconds(),
			r.On.Stats.MigrationOrders, r.On.Stats.Migrations, r.On.Stats.MigratedS); err != nil {
			return err
		}
	}
	return nil
}
