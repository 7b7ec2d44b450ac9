// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, each reporting the headline quantity of that
// experiment as custom metrics. Benchmarks run scaled-down workload
// sizes so the suite completes quickly; set REPRO_FULL=1 to run the
// paper's full dimensions (minutes). cmd/experiments always runs full
// scale and prints the complete tables.
package repro

import (
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// full selects paper-scale dimensions when REPRO_FULL=1.
var full = os.Getenv("REPRO_FULL") == "1"

func sizes(quick, paper []int) []int {
	if full {
		return paper
	}
	return quick
}

// BenchmarkFig01_NbodyCRvsDMR regenerates Figure 1: the non-solving
// stages of the N-body simulation under Checkpoint/Restart vs the DMR
// API for 48→{12,24,48} resizes. Reports the spawning-cost factor per
// target (paper: 31.4x, 63.75x, 77x).
func BenchmarkFig01_NbodyCRvsDMR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(experiments.Fig1Targets)
		spawn := map[string]map[int]sim.Time{"C/R": {}, "DMR": {}}
		for _, r := range rows {
			spawn[r.Mechanism][r.To] = r.Spawning
		}
		for _, to := range experiments.Fig1Targets {
			factor := float64(spawn["C/R"][to]) / float64(spawn["DMR"][to])
			b.ReportMetric(factor, "spawnfactor48-"+itoa(to)+"x")
		}
	}
}

// BenchmarkFig03_SyncFixedVsFlexible regenerates Figure 3: fixed vs
// flexible FS workloads with synchronous scheduling. Reports the
// makespan gain per workload size (paper: 10-15% for ≥25 jobs, more
// at 10).
func BenchmarkFig03_SyncFixedVsFlexible(b *testing.B) {
	ns := sizes([]int{10, 25, 50}, experiments.Fig3Sizes)
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Fig3(ns, experiments.DefaultSeed) {
			b.ReportMetric(c.MakespanGain(), "gain%-"+itoa(c.Jobs)+"j")
		}
	}
}

// BenchmarkFig04_Evolution10 regenerates Figure 4's trace (10-job
// workload evolution); reports the flexible run's utilization.
func BenchmarkFig04_Evolution10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, flex := experiments.Evolution(experiments.EvoFig4, experiments.DefaultSeed)
		b.ReportMetric(flex.UtilRate, "util%")
	}
}

// BenchmarkFig05_Evolution25 regenerates Figure 5's trace (25-job
// workload evolution, the last-job effect).
func BenchmarkFig05_Evolution25(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed, flex := experiments.Evolution(experiments.EvoFig5, experiments.DefaultSeed)
		b.ReportMetric(flex.Makespan.Seconds(), "flexmakespan-s")
		b.ReportMetric(fixed.Makespan.Seconds(), "fixmakespan-s")
	}
}

// BenchmarkFig06_AsyncEvolution regenerates Figure 6's trace (async
// 10-job workload, outdated decisions).
func BenchmarkFig06_AsyncEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed, flex := experiments.Evolution(experiments.EvoFig6, experiments.DefaultSeed)
		b.ReportMetric(flex.Makespan.Seconds()-fixed.Makespan.Seconds(), "asyncdelta-s")
	}
}

// BenchmarkFig07_AsyncFixedVsFlexible regenerates Figure 7: the
// asynchronous-scheduling comparison (paper: ~6% gain at ≥50 jobs,
// negative for small workloads).
func BenchmarkFig07_AsyncFixedVsFlexible(b *testing.B) {
	ns := sizes([]int{10, 50}, experiments.Fig3Sizes)
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Fig7(ns, experiments.DefaultSeed) {
			b.ReportMetric(c.MakespanGain(), "gain%-"+itoa(c.Jobs)+"j")
		}
	}
}

// BenchmarkFig08_FlexibleRatio regenerates Figure 8: 100-job workloads
// with 0-100% flexible jobs (paper: 24599→21442 s, ~12% total).
func BenchmarkFig08_FlexibleRatio(b *testing.B) {
	jobs := 30
	if full {
		jobs = 100
	}
	for i := 0; i < b.N; i++ {
		rs := experiments.Fig8(jobs, experiments.DefaultSeed)
		for _, r := range rs {
			b.ReportMetric(r.Result.Makespan.Seconds(), "makespan-s-"+itoa(r.RatioPct)+"pct")
		}
	}
}

// BenchmarkFig09_InhibitorPeriods regenerates Figure 9: micro-step FS
// workloads with checking-inhibitor periods {none,2,5,10,20} s (paper:
// plain flexible ≈ 0 or negative, ≥5 s periods ≈ +10%).
func BenchmarkFig09_InhibitorPeriods(b *testing.B) {
	ns := sizes([]int{10, 25}, experiments.Fig9Sizes)
	for i := 0; i < b.N; i++ {
		for _, cell := range experiments.Fig9(ns, experiments.Fig9Periods, experiments.DefaultSeed) {
			label := "flex"
			if cell.Period > 0 {
				label = "sched" + itoa(int(cell.Period.Seconds()))
			}
			b.ReportMetric(cell.GainPct, "gain%-"+label+"-"+itoa(cell.Jobs)+"j")
		}
	}
}

// BenchmarkFig10_RealisticWorkloads regenerates Figure 10: realistic
// CG/Jacobi/N-body workload execution times (paper gains: 46.48%,
// 49.04%, 41.42%, 41.97%).
func BenchmarkFig10_RealisticWorkloads(b *testing.B) {
	ns := sizes([]int{20, 50}, experiments.RealisticSizes)
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Realistic(ns, experiments.DefaultSeed) {
			b.ReportMetric(c.MakespanGain(), "gain%-"+itoa(c.Jobs)+"j")
		}
	}
}

// BenchmarkFig11_WaitingTimes regenerates Figure 11: average job
// waiting times (paper gains: 66.95%, 69.33%, 60.74%, 56.40%).
func BenchmarkFig11_WaitingTimes(b *testing.B) {
	ns := sizes([]int{20, 50}, experiments.RealisticSizes)
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Realistic(ns, experiments.DefaultSeed) {
			b.ReportMetric(c.WaitGain(), "waitgain%-"+itoa(c.Jobs)+"j")
		}
	}
}

// BenchmarkFig12_RealisticEvolution regenerates Figure 12's trace
// (50-job realistic workload evolution).
func BenchmarkFig12_RealisticEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed, flex := experiments.Evolution(experiments.EvoFig12, experiments.DefaultSeed)
		b.ReportMetric(fixed.UtilRate, "fixutil%")
		b.ReportMetric(flex.UtilRate, "flexutil%")
	}
}

// BenchmarkTable2_WorkloadMeasures regenerates Table II: utilization
// rate, waiting, execution and completion times for fixed vs flexible
// (paper: utilization 97-99% → 69-74%, waits cut 56-69%, execution
// +≈55%, completion cut 52-63%).
func BenchmarkTable2_WorkloadMeasures(b *testing.B) {
	ns := sizes([]int{50}, experiments.RealisticSizes)
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Realistic(ns, experiments.DefaultSeed) {
			suffix := itoa(c.Jobs) + "j"
			b.ReportMetric(c.Fixed.UtilRate, "fixutil%-"+suffix)
			b.ReportMetric(c.Flexible.UtilRate, "flexutil%-"+suffix)
			b.ReportMetric(c.Flexible.AvgExec.Seconds()/c.Fixed.AvgExec.Seconds(), "execratio-"+suffix)
			b.ReportMetric(metrics2pct(c), "completiongain%-"+suffix)
		}
	}
}

// BenchmarkExtMoldableSubmission benches the paper's future-work
// extension (§X): moldable submissions on top of malleability.
func BenchmarkExtMoldableSubmission(b *testing.B) {
	jobs := 12
	if full {
		jobs = 50
	}
	for i := 0; i < b.N; i++ {
		rows := experiments.Moldable(jobs, experiments.DefaultSeed)
		for _, r := range rows {
			b.ReportMetric(r.Result.Makespan.Seconds(), "makespan-s-"+r.Name)
		}
	}
}

// BenchmarkAblationResizeFactor sweeps the reconfiguration factor the
// paper fixes at 2.
func BenchmarkAblationResizeFactor(b *testing.B) {
	jobs := 10
	if full {
		jobs = 50
	}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.ResizeFactor(jobs, []int{2, 4}, experiments.DefaultSeed) {
			b.ReportMetric(r.Result.Makespan.Seconds(), "makespan-s-"+metricName(r.Name))
		}
	}
}

// BenchmarkExtIntraNodeTasking runs the OmpSs intra-node task-graph
// study: a CG-style iteration over 1..16 cores of one node, reporting
// the task-level speedups the per-rank step-time models fold in.
func BenchmarkExtIntraNodeTasking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.IntraNode([]int{1, 2, 4, 8, 16}, 32, 4*sim.Millisecond)
		for _, r := range rows {
			b.ReportMetric(r.Speedup, "speedup-"+itoa(r.Cores)+"c")
		}
	}
}

// BenchmarkAblationCRTransfer compares DMR in-memory redistribution
// against checkpoint/restart-style data movement at workload scale —
// Figure 1's comparison lifted to the §IX throughput setting.
func BenchmarkAblationCRTransfer(b *testing.B) {
	jobs := 16
	if full {
		jobs = 50
	}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.CRTransfer(jobs, experiments.DefaultSeed) {
			b.ReportMetric(r.Result.AvgExec.Seconds(), "avgexec-s-"+metricName(r.Name))
		}
	}
}

// BenchmarkAblationPolicyModes compares full Algorithm 1 against the
// preferred-only ablation.
func BenchmarkAblationPolicyModes(b *testing.B) {
	jobs := 12
	if full {
		jobs = 50
	}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.PolicyModes(jobs, experiments.DefaultSeed) {
			b.ReportMetric(r.Result.Makespan.Seconds(), "makespan-s-"+r.Name)
		}
	}
}

// BenchmarkEnergyRigidVsMalleable runs the energy subsystem's headline
// experiment: total cluster energy (with idle-node sleep) for rigid,
// malleable and energy-aware-policy runs of the same workload. Reports
// the energy saved relative to rigid.
func BenchmarkEnergyRigidVsMalleable(b *testing.B) {
	ns := sizes([]int{20}, experiments.EnergySizes)
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Energy(ns, experiments.DefaultSeed) {
			suffix := itoa(r.Jobs) + "j"
			b.ReportMetric(r.RigidKJ(), "rigid-kJ-"+suffix)
			b.ReportMetric(r.MalleableGainPct(), "mallsave%-"+suffix)
			b.ReportMetric(r.AwareGainPct(), "awaresave%-"+suffix)
		}
	}
}

func metrics2pct(c experiments.Comparison) float64 {
	f := c.Fixed.AvgCompletion.Seconds()
	x := c.Flexible.AvgCompletion.Seconds()
	if f == 0 {
		return 0
	}
	return (f - x) / f * 100
}

// metricName strips whitespace, which benchmark metric units forbid.
func metricName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r != ' ' && r != '\t' {
			out = append(out, r)
		}
	}
	return string(out)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
