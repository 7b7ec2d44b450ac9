// Command experiments regenerates every table and figure of the paper's
// evaluation. By default it runs the full paper dimensions; -quick runs
// scaled-down workloads for a fast smoke pass.
//
// Usage:
//
//	experiments [-exp all|fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table2|ablations|energy|powercap|mixedfleet|scale|thermal|telemetry|elastic|faults|migration] [-quick] [-seed N]
//
// The energy experiment compares total cluster energy for rigid,
// malleable (Algorithm 1) and energy-aware-policy runs of the same
// seeded workload, with per-node power accounting and idle-node sleep.
//
// The powercap experiment sweeps facility power budgets against makespan
// and energy for rigid vs malleable runs: under a cap, job starts are
// admission-controlled and running jobs are DVFS-throttled (the trace
// never exceeds the cap), at the price of stretched runtimes.
//
// The mixedfleet experiment sweeps fast:efficiency fleet compositions
// for rigid vs class-blind malleable vs class-aware placement of the
// same seeded workload (with per-job machine-class demands), reporting
// makespan, energy and the slow-class execution stretch.
//
// The thermal experiment exercises the node power-state dynamics: a
// sustained mixed-fleet workload run with and without per-class thermal
// envelopes (rigid vs malleable vs class-aware — thermal DVFS stretches
// the rigid makespan, malleability reshapes around the throttled
// machines), and a sparse-load sweep of sleep configurations showing
// the deep rungs of the S-state ladder beating the single shallow
// S-state baseline on energy.
//
// The elastic experiment runs the capacity-planning study: the same
// seeded workload shaped diurnal and bursty, on a static full fleet
// (with the stock sleep ladder) vs an elastic fleet that provisions and
// powers off nodes against a Min/Max envelope, sweeping the adapt
// loop's wait target. It reports total energy and the p95 queue wait —
// boot latency lands on the tail, so the average alone would hide the
// cost side of the trade — plus the fleet churn (boots/decommissions).
//
// The faults experiment sweeps a deterministic node-failure model
// (per-node MTBF, exponential repairs) over three recovery regimes of
// the same seeded workload: rigid jobs requeued from scratch, rigid
// jobs resuming from periodic PFS checkpoints, and malleable jobs that
// shrink onto the surviving nodes at the next reconfiguring point. The
// injector's RNG stream is independent of the workload generator's, so
// all regimes face the identical failure schedule; the table reports
// makespan, energy, requeue churn and lost work per regime.
//
// The migration experiment runs the live-migration study: the same
// seeded sparse workload (diurnal and bursty arrivals) on a mixed
// Xeon/efficiency fleet with class-blind placement and the sleep
// ladder, with the scheduler's migration pass off vs on. The pass
// checkpoint/restarts running jobs across machine classes — defragment
// straddlers onto one pure class, consolidate off-peak stragglers onto
// the efficiency class — and the table reports whether the energy
// saved survives the modeled C/R cost and the consolidated jobs'
// slower pace.
//
// The telemetry experiment runs the realistic flexible workload with
// the deterministic telemetry sink attached and prints the scheduler's
// headline counters (passes, backfill activity, placement-cache hits,
// DMR decisions, sleeps/wakes); with -csv it also writes the Chrome
// trace JSON and registry snapshots (Prometheus text + CSV).
//
// The scale experiment runs 256–2048-node mixed fleets with 1k–10k-job
// streams under the three regimes and reports kernel events, makespan
// and energy, all deterministic per seed. -quick runs only the smallest
// dimension. Host speed is measured by dmrbench (bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

var (
	csvDir = flag.String("csv", "", "directory to write evolution traces as CSV (fig4/5/6/12)")
	svgDir = flag.String("svg", "", "directory to write figures as SVG charts")
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	quick := flag.Bool("quick", false, "scaled-down workloads")
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed")
	arrival := flag.String("arrival", "", "restrict the elastic/migration studies to one arrival shape (diurnal or bursty; default: sweep both)")
	flag.Parse()

	patterns := []string(nil) // nil: each study's full pattern sweep
	if *arrival != "" {
		patterns = []string{*arrival}
	}

	prelimSizes := experiments.Fig3Sizes
	realSizes := experiments.RealisticSizes
	fig8Jobs, fig9Sizes := 100, experiments.Fig9Sizes
	ablJobs := 50
	energySizes := experiments.EnergySizes
	capJobs, capLevels := experiments.PowerCapJobs, experiments.PowerCapLevels
	mixedJobs := experiments.MixedFleetJobs
	thermalJobs, ladderJobs := experiments.ThermalJobs, experiments.LadderJobs
	elasticJobs := experiments.ElasticJobs
	migrationJobs := experiments.MigrationJobs
	var scaleDims []experiments.ScaleDim // nil sweeps the full dimensions
	if *quick {
		scaleDims = experiments.ScaleQuickDims
		mixedJobs = 20
		thermalJobs, ladderJobs = 20, 10
		elasticJobs = 40
		migrationJobs = 30
		prelimSizes = []int{10, 25, 50}
		realSizes = []int{20, 50}
		fig8Jobs, fig9Sizes = 30, []int{10, 25}
		ablJobs = 20
		energySizes = []int{20, 50}
		capJobs, capLevels = 20, []float64{0, 12000}
	}

	names, ran := []string{"all"}, false // for rejecting an unknown -exp
	run := func(name string, fn func()) {
		names = append(names, name)
		if *exp == "all" || *exp == name {
			ran = true
			fn()
		}
	}

	run("fig1", func() {
		fmt.Print(experiments.FormatFig1(experiments.Fig1(experiments.Fig1Targets)))
		fmt.Println()
	})
	run("fig3", func() {
		cs := experiments.Fig3(prelimSizes, *seed)
		fmt.Print(experiments.FormatComparisons("Figure 3: fixed vs flexible (synchronous scheduling)", cs))
		writeComparisonSVG("fig3", "Figure 3: fixed vs flexible workloads (sync)", cs, false)
		fmt.Println()
	})
	run("fig4", func() { evolution("Figure 4 (10-job workload)", experiments.EvoFig4, *seed, "fig4") })
	run("fig5", func() { evolution("Figure 5 (25-job workload)", experiments.EvoFig5, *seed, "fig5") })
	run("fig6", func() { evolution("Figure 6 (async 10-job workload)", experiments.EvoFig6, *seed, "fig6") })
	run("fig7", func() {
		cs := experiments.Fig7(prelimSizes, *seed)
		fmt.Print(experiments.FormatComparisons("Figure 7: fixed vs flexible (asynchronous scheduling)", cs))
		writeComparisonSVG("fig7", "Figure 7: fixed vs flexible workloads (async)", cs, false)
		fmt.Println()
	})
	run("fig8", func() {
		fmt.Print(experiments.FormatFig8(experiments.Fig8(fig8Jobs, *seed)))
		fmt.Println()
	})
	run("fig9", func() {
		fmt.Print(experiments.FormatFig9(experiments.Fig9(fig9Sizes, experiments.Fig9Periods, *seed)))
		fmt.Println()
	})
	names = append(names, "fig10", "fig11", "table2")
	if *exp == "all" || *exp == "fig10" || *exp == "fig11" || *exp == "table2" {
		ran = true
		cs := experiments.Realistic(realSizes, *seed)
		fmt.Print(experiments.FormatFig10(cs))
		fmt.Println()
		fmt.Print(experiments.FormatFig11(cs))
		fmt.Println()
		fmt.Print(experiments.FormatTable2(cs))
		fmt.Println()
		writeComparisonSVG("fig10", "Figure 10: workload execution times", cs, false)
		writeComparisonSVG("fig11", "Figure 11: average job waiting time", cs, true)
	}
	run("fig12", func() { evolution("Figure 12 (50-job realistic workload)", experiments.EvoFig12, *seed, "fig12") })
	run("energy", func() {
		rows := experiments.Energy(energySizes, *seed)
		fmt.Print(experiments.FormatEnergy(rows))
		fmt.Println()
		writeEnergyOutputs(rows)
	})
	run("powercap", func() {
		rows := experiments.PowerCap(capJobs, capLevels, *seed)
		fmt.Print(experiments.FormatPowerCap(rows))
		fmt.Println()
		writePowerCapOutputs(rows)
	})
	run("mixedfleet", func() {
		rows := experiments.MixedFleet(mixedJobs, nil, *seed)
		fmt.Print(experiments.FormatMixedFleet(rows))
		fmt.Println()
		writeMixedFleetOutputs(rows)
	})
	run("thermal", func() {
		row := experiments.Thermal(thermalJobs, *seed)
		ladders := experiments.LadderSweep(ladderJobs, *seed)
		fmt.Print(experiments.FormatThermal(row))
		fmt.Println()
		fmt.Print(experiments.FormatLadder(ladders))
		fmt.Println()
		writeThermalOutputs(row, ladders)
	})
	run("scale", func() {
		rows := experiments.Scale(scaleDims, *seed)
		fmt.Print(experiments.FormatScale(rows))
		fmt.Println()
		writeScaleOutputs(rows)
	})
	run("elastic", func() {
		rows, err := experiments.Elastic(elasticJobs, patterns, experiments.ElasticTargets, *seed)
		if err != nil {
			usageErr(err)
		}
		fmt.Print(experiments.FormatElastic(rows))
		fmt.Println()
		writeElasticOutputs(rows)
	})
	run("migration", func() {
		rows, err := experiments.Migration(migrationJobs, patterns, *seed)
		if err != nil {
			usageErr(err)
		}
		fmt.Print(experiments.FormatMigration(rows))
		fmt.Println()
		writeMigrationOutputs(rows)
	})
	run("faults", func() {
		rows := experiments.Faults(experiments.FaultJobs, experiments.FaultMTBFs, *seed)
		fmt.Print(experiments.FormatFaults(rows))
		fmt.Println()
		writeFaultsOutputs(rows)
	})
	run("telemetry", func() {
		jobs := 50
		if *quick {
			jobs = 20
		}
		r := experiments.Telemetry(jobs, *seed)
		fmt.Print(experiments.FormatTelemetry(r))
		fmt.Println()
		writeTelemetryOutputs(r)
	})
	run("ablations", func() {
		fmt.Print(experiments.FormatAblation("Ablation: moldable submissions (paper §X future work)", experiments.Moldable(ablJobs, *seed)))
		fmt.Println()
		fmt.Print(experiments.FormatAblation("Ablation: resize factor", experiments.ResizeFactor(ablJobs, []int{2, 4}, *seed)))
		fmt.Println()
		fmt.Print(experiments.FormatAblation("Ablation: policy modes", experiments.PolicyModes(ablJobs, *seed)))
		fmt.Println()
	})

	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q (valid: %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}

// usageErr reports a bad flag value with the flag usage and exits.
func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	flag.Usage()
	os.Exit(2)
}

// evolution prints an evolution comparison as ASCII charts (the paper's
// allocation and throughput plots) and optionally dumps the raw series
// as CSV for external plotting.
func evolution(title string, kind experiments.EvolutionKind, seed int64, name string) {
	fixed, flex := experiments.Evolution(kind, seed)
	if *csvDir != "" {
		writeTrace(filepath.Join(*csvDir, name+"_fixed.csv"), fixed)
		writeTrace(filepath.Join(*csvDir, name+"_flexible.csv"), flex)
	}
	if *svgDir != "" {
		end := fixed.Makespan
		if flex.Makespan > end {
			end = flex.Makespan
		}
		writeFile(filepath.Join(*svgDir, name+"_alloc.svg"), func(f *os.File) error {
			return metrics.WriteEvolutionSVG(f, title+": allocated nodes", "nodes",
				fixed.Trace.TotalNodes, end, []metrics.Series{
					{Name: "fixed", Color: "#1f77b4", Trace: fixed.Trace, Value: func(s metrics.Sample) int { return s.Alloc }},
					{Name: "flexible", Color: "#d62728", Trace: flex.Trace, Value: func(s metrics.Sample) int { return s.Alloc }},
				})
		})
		writeFile(filepath.Join(*svgDir, name+"_completed.svg"), func(f *os.File) error {
			return metrics.WriteEvolutionSVG(f, title+": completed jobs", "jobs",
				fixed.Jobs, end, []metrics.Series{
					{Name: "fixed", Color: "#1f77b4", Trace: fixed.Trace, Value: func(s metrics.Sample) int { return s.Completed }},
					{Name: "flexible", Color: "#d62728", Trace: flex.Trace, Value: func(s metrics.Sample) int { return s.Completed }},
				})
		})
	}
	end := fixed.Makespan
	if flex.Makespan > end {
		end = flex.Makespan
	}
	fmt.Println(title)
	total := fixed.Trace.TotalNodes
	fmt.Print(metrics.AsciiChart("fixed: allocated nodes", fixed.Trace,
		func(s metrics.Sample) int { return s.Alloc }, total, 72, end))
	fmt.Print(metrics.AsciiChart("flexible: allocated nodes", flex.Trace,
		func(s metrics.Sample) int { return s.Alloc }, total, 72, end))
	jobs := fixed.Jobs
	fmt.Print(metrics.AsciiChart("fixed: completed jobs", fixed.Trace,
		func(s metrics.Sample) int { return s.Completed }, jobs, 72, end))
	fmt.Print(metrics.AsciiChart("flexible: completed jobs", flex.Trace,
		func(s metrics.Sample) int { return s.Completed }, jobs, 72, end))
	fmt.Printf("fixed makespan %s | flexible makespan %s | gain %.2f%%\n\n",
		fmtSecs(fixed.Makespan), fmtSecs(flex.Makespan),
		metrics.GainPct(fixed.Makespan.Seconds(), flex.Makespan.Seconds()))
}

func fmtSecs(t sim.Time) string { return fmt.Sprintf("%.0f s", t.Seconds()) }

// writeComparisonSVG renders a fixed-vs-flexible bar chart when -svg is
// set. waits selects the waiting-time series instead of makespans.
func writeComparisonSVG(name, title string, cs []experiments.Comparison, waits bool) {
	if *svgDir == "" {
		return
	}
	var groups []metrics.BarGroup
	for _, c := range cs {
		fix, flex := c.Fixed.Makespan.Seconds(), c.Flexible.Makespan.Seconds()
		if waits {
			fix, flex = c.Fixed.AvgWait.Seconds(), c.Flexible.AvgWait.Seconds()
		}
		groups = append(groups, metrics.BarGroup{
			Label:  fmt.Sprintf("%d jobs", c.Jobs),
			Values: []float64{fix, flex},
		})
	}
	writeFile(filepath.Join(*svgDir, name+".svg"), func(f *os.File) error {
		yLabel := "execution time (s)"
		if waits {
			yLabel = "avg waiting time (s)"
		}
		return metrics.WriteBarsSVG(f, title, yLabel,
			[]string{"fixed", "flexible"}, []string{"#1f77b4", "#d62728"}, groups)
	})
}

// writeEnergyOutputs dumps the energy comparison as CSV power traces and
// SVG charts (energy bars plus power-draw evolutions) when requested.
func writeEnergyOutputs(rows []experiments.EnergyRow) {
	if *csvDir != "" {
		for _, r := range rows {
			name := fmt.Sprintf("energy_%dj", r.Jobs)
			for suffix, res := range map[string]*metrics.WorkloadResult{
				"rigid": r.Rigid, "malleable": r.Malleable, "aware": r.Aware,
			} {
				writeFile(filepath.Join(*csvDir, name+"_"+suffix+"_power.csv"), func(f *os.File) error {
					return metrics.WritePowerCSV(f, res.Power)
				})
			}
		}
	}
	if *svgDir == "" {
		return
	}
	var groups []metrics.BarGroup
	for _, r := range rows {
		groups = append(groups, metrics.BarGroup{
			Label:  fmt.Sprintf("%d jobs", r.Jobs),
			Values: []float64{r.Rigid.EnergyJ / 1e3, r.Malleable.EnergyJ / 1e3, r.Aware.EnergyJ / 1e3},
		})
	}
	writeFile(filepath.Join(*svgDir, "energy.svg"), func(f *os.File) error {
		return metrics.WriteBarsSVG(f, "Total cluster energy per workload", "energy (kJ)",
			[]string{"rigid", "malleable", "energy-aware"},
			[]string{"#1f77b4", "#d62728", "#2ca02c"}, groups)
	})
	for _, r := range rows {
		end := r.Rigid.Makespan
		for _, res := range []*metrics.WorkloadResult{r.Malleable, r.Aware} {
			if res.Makespan > end {
				end = res.Makespan
			}
		}
		name := fmt.Sprintf("energy_%dj_power.svg", r.Jobs)
		writeFile(filepath.Join(*svgDir, name), func(f *os.File) error {
			return metrics.WritePowerSVG(f, fmt.Sprintf("Cluster power draw (%d jobs)", r.Jobs), end, 0,
				[]string{"rigid", "malleable", "energy-aware"},
				[]string{"#1f77b4", "#d62728", "#2ca02c"},
				[]*metrics.PowerTrace{r.Rigid.Power, r.Malleable.Power, r.Aware.Power})
		})
	}
}

// writePowerCapOutputs dumps the cap sweep's power traces as CSV and SVG
// (with the cap drawn as a reference line) when requested.
func writePowerCapOutputs(rows []experiments.PowerCapRow) {
	if *csvDir != "" {
		for _, r := range rows {
			name := "powercap_none"
			if r.CapW > 0 {
				name = fmt.Sprintf("powercap_%.0fw", r.CapW)
			}
			for suffix, run := range map[string]experiments.PowerCapRun{
				"rigid": r.Rigid, "malleable": r.Malleable,
			} {
				writeFile(filepath.Join(*csvDir, name+"_"+suffix+"_power.csv"), func(f *os.File) error {
					return metrics.WritePowerCSV(f, run.Res.Power)
				})
			}
		}
	}
	if *svgDir == "" {
		return
	}
	for _, r := range rows {
		end := r.Rigid.Res.Makespan
		if r.Malleable.Res.Makespan > end {
			end = r.Malleable.Res.Makespan
		}
		title := "Cluster power draw (uncapped)"
		name := "powercap_none_power.svg"
		if r.CapW > 0 {
			title = fmt.Sprintf("Cluster power draw (cap %.0f W)", r.CapW)
			name = fmt.Sprintf("powercap_%.0fw_power.svg", r.CapW)
		}
		writeFile(filepath.Join(*svgDir, name), func(f *os.File) error {
			return metrics.WritePowerSVG(f, title, end, r.CapW,
				[]string{"rigid", "malleable"},
				[]string{"#1f77b4", "#d62728"},
				[]*metrics.PowerTrace{r.Rigid.Res.Power, r.Malleable.Res.Power})
		})
	}
}

// writeMixedFleetOutputs dumps the mixed-fleet sweep: a summary CSV (one
// row per fleet ratio and regime), per-ratio power-trace CSVs, makespan
// and energy bar charts, and a power-draw SVG per ratio.
func writeMixedFleetOutputs(rows []experiments.MixedFleetRow) {
	regimes := func(r experiments.MixedFleetRow) []struct {
		name string
		run  experiments.MixedFleetRun
	} {
		return []struct {
			name string
			run  experiments.MixedFleetRun
		}{
			{"rigid", r.Rigid}, {"malleable", r.Malleable}, {"classaware", r.ClassAware},
		}
	}
	if *csvDir != "" {
		writeFile(filepath.Join(*csvDir, "mixedfleet_summary.csv"), func(f *os.File) error {
			if _, err := fmt.Fprintln(f, "fast_nodes,slow_nodes,regime,makespan_s,energy_j,fast_class_j,slow_class_j,slow_stretch,slow_touched_jobs,resizes"); err != nil {
				return err
			}
			for _, r := range rows {
				for _, reg := range regimes(r) {
					if _, err := fmt.Fprintf(f, "%d,%d,%s,%.3f,%.1f,%.1f,%.1f,%.4f,%d,%d\n",
						r.FastNodes, r.SlowNodes, reg.name,
						reg.run.Res.Makespan.Seconds(), reg.run.Res.EnergyJ,
						reg.run.FastJ, reg.run.SlowJ,
						reg.run.SlowStretch, reg.run.SlowTouched, reg.run.Res.Resizes); err != nil {
						return err
					}
				}
			}
			return nil
		})
		for _, r := range rows {
			for _, reg := range regimes(r) {
				name := fmt.Sprintf("mixedfleet_%df%ds_%s_power.csv", r.FastNodes, r.SlowNodes, reg.name)
				trace := reg.run.Res.Power
				writeFile(filepath.Join(*csvDir, name), func(f *os.File) error {
					return metrics.WritePowerCSV(f, trace)
				})
			}
		}
	}
	if *svgDir == "" {
		return
	}
	names := []string{"rigid", "malleable", "class-aware"}
	colors := []string{"#1f77b4", "#d62728", "#2ca02c"}
	var mkGroups, enGroups []metrics.BarGroup
	for _, r := range rows {
		label := fmt.Sprintf("%d:%d", r.FastNodes, r.SlowNodes)
		mkGroups = append(mkGroups, metrics.BarGroup{Label: label, Values: []float64{
			r.Rigid.Res.Makespan.Seconds(), r.Malleable.Res.Makespan.Seconds(), r.ClassAware.Res.Makespan.Seconds(),
		}})
		enGroups = append(enGroups, metrics.BarGroup{Label: label, Values: []float64{
			r.Rigid.Res.EnergyJ / 1e3, r.Malleable.Res.EnergyJ / 1e3, r.ClassAware.Res.EnergyJ / 1e3,
		}})
	}
	writeFile(filepath.Join(*svgDir, "mixedfleet_makespan.svg"), func(f *os.File) error {
		return metrics.WriteBarsSVG(f, "Mixed fleet: makespan by fast:slow ratio", "makespan (s)", names, colors, mkGroups)
	})
	writeFile(filepath.Join(*svgDir, "mixedfleet_energy.svg"), func(f *os.File) error {
		return metrics.WriteBarsSVG(f, "Mixed fleet: energy by fast:slow ratio", "energy (kJ)", names, colors, enGroups)
	})
	for _, r := range rows {
		end := r.Rigid.Res.Makespan
		for _, reg := range regimes(r) {
			if reg.run.Res.Makespan > end {
				end = reg.run.Res.Makespan
			}
		}
		name := fmt.Sprintf("mixedfleet_%df%ds_power.svg", r.FastNodes, r.SlowNodes)
		writeFile(filepath.Join(*svgDir, name), func(f *os.File) error {
			return metrics.WritePowerSVG(f,
				fmt.Sprintf("Cluster power draw (%d fast : %d efficiency)", r.FastNodes, r.SlowNodes), end, 0,
				names, colors,
				[]*metrics.PowerTrace{r.Rigid.Res.Power, r.Malleable.Res.Power, r.ClassAware.Res.Power})
		})
	}
}

// writeThermalOutputs dumps the thermal study: the summary CSV (the
// golden-pinned artifact), per-regime temperature traces, and an SVG of
// the rigid regime's hottest-node evolution against the envelope.
func writeThermalOutputs(row experiments.ThermalRow, ladders []experiments.LadderRun) {
	regimes := []struct {
		name string
		run  experiments.ThermalRun
	}{
		{"rigid", row.Rigid}, {"malleable", row.Malleable}, {"classaware", row.ClassAware},
	}
	if *csvDir != "" {
		writeFile(filepath.Join(*csvDir, "thermal_summary.csv"), func(f *os.File) error {
			return experiments.WriteThermalSummaryCSV(f, row, ladders)
		})
		for _, reg := range regimes {
			if reg.run.Res.Temp == nil {
				continue
			}
			trace := reg.run.Res.Temp
			writeFile(filepath.Join(*csvDir, "thermal_"+reg.name+"_temp.csv"), func(f *os.File) error {
				return metrics.WriteTempCSV(f, trace)
			})
		}
	}
	if *svgDir == "" {
		return
	}
	th := energy.DefaultThermalFor(energy.DefaultProfile())
	for _, reg := range regimes {
		if reg.run.Res.Temp == nil {
			continue
		}
		trace, end := reg.run.Res.Temp, reg.run.Res.Makespan
		name := reg.name
		writeFile(filepath.Join(*svgDir, "thermal_"+name+"_temp.svg"), func(f *os.File) error {
			return metrics.WriteTempSVG(f,
				fmt.Sprintf("Hottest node temperature (%s regime)", name),
				end, th.ThrottleC, th.RestoreC, trace)
		})
	}
}

// writeElasticOutputs dumps the elastic study's summary CSV (the
// golden-pinned artifact) when requested.
func writeElasticOutputs(rows []experiments.ElasticRow) {
	if *csvDir == "" {
		return
	}
	writeFile(filepath.Join(*csvDir, "elastic_summary.csv"), func(f *os.File) error {
		return experiments.WriteElasticSummaryCSV(f, rows)
	})
}

// writeMigrationOutputs dumps the migration study's summary CSV (the
// golden-pinned artifact) when requested.
func writeMigrationOutputs(rows []experiments.MigrationRow) {
	if *csvDir == "" {
		return
	}
	writeFile(filepath.Join(*csvDir, "migration_summary.csv"), func(f *os.File) error {
		return experiments.WriteMigrationSummaryCSV(f, rows)
	})
}

// writeFaultsOutputs dumps the fault study's summary CSV (the
// golden-pinned artifact) when requested.
func writeFaultsOutputs(rows []experiments.FaultRow) {
	if *csvDir == "" {
		return
	}
	writeFile(filepath.Join(*csvDir, "faults_summary.csv"), func(f *os.File) error {
		return experiments.WriteFaultsSummaryCSV(f, rows)
	})
}

// writeTelemetryOutputs dumps the instrumented run's artifacts when
// -csv is set: the Chrome trace JSON (Perfetto-loadable) and the
// metrics registry in both Prometheus text and CSV form.
func writeTelemetryOutputs(r *experiments.TelemetryRun) {
	if *csvDir == "" {
		return
	}
	writeFile(filepath.Join(*csvDir, "telemetry_trace.json"), func(f *os.File) error {
		return r.Sink.Trace.WriteJSON(f)
	})
	writeFile(filepath.Join(*csvDir, "telemetry_metrics.prom"), func(f *os.File) error {
		return r.Sink.Reg.WriteProm(f)
	})
	writeFile(filepath.Join(*csvDir, "telemetry_metrics.csv"), func(f *os.File) error {
		return r.Sink.Reg.WriteCSV(f)
	})
}

// writeScaleOutputs dumps the scale study's summary CSV when requested:
// one row per dimension and regime.
func writeScaleOutputs(rows []experiments.ScaleRow) {
	if *csvDir == "" {
		return
	}
	writeFile(filepath.Join(*csvDir, "scale_summary.csv"), func(f *os.File) error {
		if _, err := fmt.Fprintln(f, "nodes,jobs,regime,kernel_events,makespan_s,energy_j"); err != nil {
			return err
		}
		for _, r := range rows {
			for _, run := range r.Runs() {
				if _, err := fmt.Fprintf(f, "%d,%d,%s,%d,%.3f,%.1f\n",
					r.Nodes, r.Jobs, run.Regime, run.KernelEvents,
					run.Res.Makespan.Seconds(), run.Res.EnergyJ); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// writeFile creates path and runs fn on it.
func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeTrace dumps one run's evolution series to path.
func writeTrace(path string, res *metrics.WorkloadResult) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := metrics.WriteTraceCSV(f, res.Trace); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d samples)\n", path, len(res.Trace.Samples))
}
