package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The scale study runs the three regimes on fleets of hundreds to
// thousands of nodes with thousands of jobs, far past the paper's
// 65-node testbed. Every figure it reports is deterministic per seed:
// kernel events, makespan and energy. Host time is measured by dmrbench
// (bench/), not here.

// scalePlatform builds a half-fast half-efficiency fleet of the given
// size on the Marenostrum interconnect constants.
func scalePlatform(nodes int) platform.Config {
	pc := platform.Marenostrum3()
	pc.Nodes = nodes
	fast := nodes / 2
	pc.Classes = []platform.MachineClass{
		{Count: fast, Power: energy.DefaultProfile()},
		{Count: nodes - fast, Power: energy.EfficiencyProfile()},
	}
	return pc
}

// scaleWorkloadParams sizes a Feitelson stream for a fleet: job widths up
// to nodes/8 and arrivals dense enough that the pending queue stays deep.
// Fewer iterations than the paper's 25 keep the application layer light:
// the study's subject is scheduling at fleet scale, not the step loop.
func scaleWorkloadParams(nodes, jobs int, seed int64) workload.Params {
	p := workload.Preliminary(jobs, 1, seed)
	p.MaxNodes = nodes / 8
	if p.MaxNodes < 8 {
		p.MaxNodes = 8
	}
	p.MeanArrival = 2 * sim.Second
	p.Iterations = 10
	p.RepeatProb = 0
	p.ClassMix = workload.DefaultClassMix()
	return p
}

// ScaleDim is one fleet/workload dimension of the scale study.
type ScaleDim struct {
	Nodes, Jobs int
}

// ScaleDims are the swept dimensions: fleets far past the paper's
// 65-node testbed, each with a proportionally deeper job stream.
var ScaleDims = []ScaleDim{
	{Nodes: 256, Jobs: 1000},
	{Nodes: 512, Jobs: 2500},
	{Nodes: 1024, Jobs: 5000},
	{Nodes: 2048, Jobs: 10000},
}

// ScaleQuickDims is the smallest dimension alone, the -quick variant.
var ScaleQuickDims = []ScaleDim{{Nodes: 256, Jobs: 1000}}

// ScaleRun is one regime execution at one dimension: the usual workload
// measures plus the kernel events the run executed.
type ScaleRun struct {
	Regime       string
	Res          *metrics.WorkloadResult
	KernelEvents uint64
}

// ScaleRow compares the three regimes at one dimension.
type ScaleRow struct {
	Nodes, Jobs int
	Rigid       ScaleRun
	Malleable   ScaleRun
	ClassAware  ScaleRun
}

// Runs returns the row's regime runs in report order.
func (r ScaleRow) Runs() []ScaleRun { return []ScaleRun{r.Rigid, r.Malleable, r.ClassAware} }

// scaleRun executes one regime through the full stack (controller,
// nanos runtime, FS step loops, energy accounting with idle sleep).
func scaleRun(regime string, pc platform.Config, classAware bool, specs []workload.Spec) ScaleRun {
	cfg := energyConfig(false)
	cfg.Platform = &pc
	cfg.ClassAware = classAware
	// Large runs only ever read the aggregate result; cap the retained
	// event log so memory stays flat as the job count scales.
	cfg.EventLogCap = 10000
	sys := core.NewSystem(cfg)
	sys.SubmitAll(specs)
	res := sys.Run()
	return ScaleRun{Regime: regime, Res: res, KernelEvents: sys.Cluster.K.Events()}
}

// Scale runs the fleet-scale study: for each dimension, the same seeded
// wide-job stream (hard/soft class demands, mixed fleet) executed rigid,
// malleable (Algorithm 1, class-blind) and class-aware. dims==nil sweeps
// ScaleDims.
func Scale(dims []ScaleDim, seed int64) []ScaleRow {
	if dims == nil {
		dims = ScaleDims
	}
	var out []ScaleRow
	for _, d := range dims {
		specs := workload.Generate(scaleWorkloadParams(d.Nodes, d.Jobs, seed))
		blind := workload.StripPreferences(specs)
		pc := scalePlatform(d.Nodes)
		out = append(out, ScaleRow{
			Nodes:      d.Nodes,
			Jobs:       d.Jobs,
			Rigid:      scaleRun("rigid", pc, false, workload.SetFlexible(blind, false)),
			Malleable:  scaleRun("malleable", pc, false, workload.SetFlexible(blind, true)),
			ClassAware: scaleRun("classaware", pc, true, workload.SetFlexible(specs, true)),
		})
	}
	return out
}

// FormatScale renders the study: per dimension and regime, the kernel
// events executed, makespan and energy.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Scale: rigid vs malleable vs class-aware at fleet scale\n")
	fmt.Fprintf(&b, "%6s %7s %11s %11s %12s %11s\n",
		"nodes", "jobs", "regime", "events", "makespan(s)", "energy(MJ)")
	for _, r := range rows {
		for _, run := range r.Runs() {
			fmt.Fprintf(&b, "%6d %7d %11s %11d %12.0f %11.1f\n",
				r.Nodes, r.Jobs, run.Regime, run.KernelEvents,
				run.Res.Makespan.Seconds(), run.Res.EnergyJ/1e6)
		}
	}
	return b.String()
}
