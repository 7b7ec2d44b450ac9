package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The elastic-capacity study: the same seeded workload, shaped diurnal
// or bursty, executed on a static full fleet (with the stock idle
// S-state ladder — the strongest fixed-capacity baseline) and on an
// elastic fleet that provisions and decommissions against a Min/Max
// envelope, with the adapt loop's wait target swept. The question the
// table answers is the capacity-planning trade: how much energy does
// fleet elasticity buy, and what does it cost the queue-wait tail
// (p95, not the average — boot latency lands exactly on the tail).

// ElasticJobs is the workload size of the full elastic study.
const ElasticJobs = 100

// ElasticMin is the envelope floor: the always-on core of the fleet,
// wide enough that a lone off-peak job of typical width starts on the
// resident capacity instead of paying a cold boot.
const ElasticMin = 16

// ElasticTargets is the adapt-loop wait-target sweep: scale up
// immediately, after two minutes, after ten.
var ElasticTargets = []sim.Time{0, 120 * sim.Second, 600 * sim.Second}

// ElasticRun is one elastic regime at one wait target.
type ElasticRun struct {
	TargetWait    sim.Time
	Res           *metrics.WorkloadResult
	Boots         int
	Decommissions int
}

// ElasticRow compares one arrival shape: static fleet vs the elastic
// target sweep over the identical job stream.
type ElasticRow struct {
	Pattern string // "diurnal" or "bursty"
	Jobs    int
	Min     int
	Static  *metrics.WorkloadResult
	Runs    []ElasticRun
}

// EnergyGainPct is the energy saved by the elastic run relative to the
// static fleet.
func (r ElasticRow) EnergyGainPct(i int) float64 {
	return metrics.GainPct(r.Static.EnergyJ, r.Runs[i].Res.EnergyJ)
}

// ElasticPatterns is the arrival-shape sweep of the full elastic study.
var ElasticPatterns = []string{"diurnal", "bursty"}

// elasticParams shapes the realistic workload's arrivals by pattern
// name (workload.NamedArrival). A bad name — typically a mistyped
// -arrival flag — comes back as an error for the CLI to turn into a
// usage message; it must not reach the generator.
func elasticParams(jobs int, pattern string, seed int64) (workload.Params, error) {
	p := workload.Realistic(jobs, seed)
	// A fleet sized for peak demand idles through the valleys: the mean
	// arrival is stretched so the cluster has real lulls, and the
	// modulation concentrates the work into peaks. This is the regime
	// capacity elasticity exists for — the saturated §IX stream keeps
	// every node busy and leaves an adapt loop nothing to retire. The
	// valleys must be hours long to clear the power-off break-even: a
	// reboot costs ~40 kJ more than a deep-rung wake, which the 4 W
	// off-vs-deep saving only repays after ~2.75 h of quiet.
	p.MeanArrival = 240 * sim.Second
	shape, err := workload.NamedArrival(pattern)
	if err != nil {
		return workload.Params{}, err
	}
	p.Arrival = shape
	return p, nil
}

// elasticConfig builds the study's system: the stock sleep ladder, plus
// the elastic envelope when el is non-nil.
func elasticConfig(el *slurm.ElasticConfig) core.Config {
	cfg := core.DefaultConfig()
	cfg.SleepLadder = slurm.DefaultSleepLadder()
	cfg.Elastic = el
	return cfg
}

// runElastic executes one workload and collects the fleet churn.
func runElastic(cfg core.Config, specs []workload.Spec) (*metrics.WorkloadResult, int, int) {
	s := core.NewSystem(cfg)
	s.SubmitAll(specs)
	res := s.Run()
	st := s.Ctl.Stats()
	return res, st.Boots, st.Decommissions
}

// Elastic runs the static-vs-elastic comparison over the given arrival
// shapes (nil: the full ElasticPatterns sweep). Jobs are run rigid: the
// study isolates fleet elasticity from job malleability. An unknown
// pattern name returns an error before anything runs.
func Elastic(jobs int, patterns []string, targets []sim.Time, seed int64) ([]ElasticRow, error) {
	if patterns == nil {
		patterns = ElasticPatterns
	}
	var rows []ElasticRow
	for _, pattern := range patterns {
		params, err := elasticParams(jobs, pattern, seed)
		if err != nil {
			return nil, err
		}
		specs := workload.SetFlexible(workload.Generate(params), false)
		row := ElasticRow{Pattern: pattern, Jobs: jobs, Min: ElasticMin}
		row.Static, _, _ = runElastic(elasticConfig(nil), specs)
		for _, tw := range targets {
			el := &slurm.ElasticConfig{
				Min: ElasticMin, TargetWait: tw, BootBurst: 16,
				// An hour of scale-down hold-down: far longer than the
				// between-arrival dips at peak rate, far shorter than the
				// multi-hour lulls that pay for a power-off.
				HoldDown: 3600 * sim.Second,
			}
			res, boots, decomms := runElastic(elasticConfig(el), specs)
			row.Runs = append(row.Runs, ElasticRun{
				TargetWait: tw, Res: res, Boots: boots, Decommissions: decomms,
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatElastic renders the study as a table: one static row and one
// row per wait target, for each arrival shape.
func FormatElastic(rows []ElasticRow) string {
	var b strings.Builder
	b.WriteString("Elastic fleet: static (full fleet + sleep ladder) vs elastic envelope (same seeded workload, rigid jobs)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s arrivals, %d jobs, envelope min %d:\n", r.Pattern, r.Jobs, r.Min)
		fmt.Fprintf(&b, "  %-12s %12s %8s %12s %12s %10s %8s %8s\n",
			"regime", "energy(kJ)", "gain%", "p95wait(s)", "avgwait(s)", "mkspan(s)", "boots", "offs")
		fmt.Fprintf(&b, "  %-12s %12.0f %8s %12.0f %12.0f %10.0f %8s %8s\n",
			"static", r.Static.EnergyJ/1e3, "-",
			r.Static.P95Wait.Seconds(), r.Static.AvgWait.Seconds(),
			r.Static.Makespan.Seconds(), "-", "-")
		for i, run := range r.Runs {
			fmt.Fprintf(&b, "  %-12s %12.0f %8.2f %12.0f %12.0f %10.0f %8d %8d\n",
				fmt.Sprintf("target=%.0fs", run.TargetWait.Seconds()),
				run.Res.EnergyJ/1e3, r.EnergyGainPct(i),
				run.Res.P95Wait.Seconds(), run.Res.AvgWait.Seconds(),
				run.Res.Makespan.Seconds(), run.Boots, run.Decommissions)
		}
	}
	return b.String()
}

// WriteElasticSummaryCSV writes the study as one CSV row per regime —
// the golden-pinned artifact of the -exp elastic command.
func WriteElasticSummaryCSV(w io.Writer, rows []ElasticRow) error {
	if _, err := fmt.Fprintln(w, "pattern,jobs,regime,target_wait_s,energy_j,p95_wait_s,avg_wait_s,makespan_s,boots,decommissions"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%d,static,,%.1f,%.3f,%.3f,%.3f,,\n",
			r.Pattern, r.Jobs, r.Static.EnergyJ,
			r.Static.P95Wait.Seconds(), r.Static.AvgWait.Seconds(), r.Static.Makespan.Seconds()); err != nil {
			return err
		}
		for _, run := range r.Runs {
			if _, err := fmt.Fprintf(w, "%s,%d,elastic,%.0f,%.1f,%.3f,%.3f,%.3f,%d,%d\n",
				r.Pattern, r.Jobs, run.TargetWait.Seconds(), run.Res.EnergyJ,
				run.Res.P95Wait.Seconds(), run.Res.AvgWait.Seconds(), run.Res.Makespan.Seconds(),
				run.Boots, run.Decommissions); err != nil {
				return err
			}
		}
	}
	return nil
}
