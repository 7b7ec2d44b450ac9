package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The scale study stresses the simulator itself: fleets of hundreds to
// thousands of nodes running thousands of jobs, far past the paper's
// 65-node testbed. Its subject is the scheduler and kernel hot paths —
// the quantities of interest are wall-clock seconds, kernel events per
// second and completed jobs per second, with makespan/energy kept only
// as correctness witnesses.

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
// to nodes/8, arrivals dense enough that the pending queue stays deep —
// the regime where per-pass scheduling costs dominate. Fewer iterations
// than the paper's 25 keep the application layer light: the study's
// subject is the scheduler, not the step loop.
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

// ScaleQuickDims is the smallest dimension alone, the -quick (and CI
// budget-gate) variant.
var ScaleQuickDims = []ScaleDim{{Nodes: 256, Jobs: 1000}}

// ScaleRun is one regime execution at one dimension: the usual workload
// measures plus the simulator-throughput figures that are this study's
// actual subject.
type ScaleRun struct {
	Regime       string
	Res          *metrics.WorkloadResult
	WallSec      float64
	KernelEvents uint64
	EventsPerSec float64
	JobsPerSec   float64
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
// nanos runtime, FS step loops, energy accounting with idle sleep) and
// measures the simulator itself: wall-clock seconds, kernel events per
// second, completed jobs per second.
func scaleRun(regime string, pc platform.Config, classAware bool, specs []workload.Spec) ScaleRun {
	cfg := energyConfig(false)
	cfg.Platform = &pc
	cfg.ClassAware = classAware
	// Large runs only ever read the aggregate result; cap the retained
	// event log so memory stays flat as the job count scales.
	cfg.EventLogCap = 10000
	sys := core.NewSystem(cfg)
	sys.SubmitAll(specs)
	//simcheck:allow walltime scale experiment measures host throughput, not sim results
	start := time.Now()
	res := sys.Run()
	//simcheck:allow walltime wall seconds is the quantity this experiment reports
	wall := time.Since(start).Seconds()
	run := ScaleRun{Regime: regime, Res: res, WallSec: wall, KernelEvents: sys.Cluster.K.Events()}
	if wall > 0 {
		run.EventsPerSec = float64(run.KernelEvents) / wall
		run.JobsPerSec = float64(res.Jobs) / wall
	}
	return run
}

// Scale runs the cluster-scale throughput study: for each dimension, the
// same seeded wide-job stream (hard/soft class demands, mixed fleet)
// executed rigid, malleable (Algorithm 1, class-blind) and class-aware.
// Makespan and energy are kept as correctness witnesses; the headline
// numbers are events/sec and jobs/sec of the simulator itself — the
// trajectory every performance PR is measured against. dims==nil sweeps
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

// FormatScale renders the study: per dimension and regime, the
// simulator's wall-clock seconds, kernel events and throughput, with
// makespan and energy as correctness witnesses.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	b.WriteString("Scale: simulator throughput at fleet scale (rigid vs malleable vs class-aware)\n")
	fmt.Fprintf(&b, "%6s %7s %11s %9s %11s %11s %9s %12s %11s\n",
		"nodes", "jobs", "regime", "wall(s)", "events", "events/s", "jobs/s", "makespan(s)", "energy(MJ)")
	for _, r := range rows {
		for _, run := range r.Runs() {
			fmt.Fprintf(&b, "%6d %7d %11s %9.2f %11d %11.0f %9.0f %12.0f %11.1f\n",
				r.Nodes, r.Jobs, run.Regime, run.WallSec, run.KernelEvents,
				run.EventsPerSec, run.JobsPerSec,
				run.Res.Makespan.Seconds(), run.Res.EnergyJ/1e6)
		}
	}
	return b.String()
}

// SchedStats summarizes one controller-only throughput run.
type SchedStats struct {
	Nodes, Jobs  int
	Makespan     sim.Time
	KernelEvents uint64
	Completed    int
}

// SchedulerThroughput drives the scheduler hot path in isolation: a
// mixed-fleet cluster with class-aware placement, energy accounting and
// idle sleep, a deep queue of class-demanding jobs, and applications
// reduced to a timer — every cycle goes to schedulePass, pickNodes, the
// backfill scan and the power-state bookkeeping. This is the workload
// behind BenchmarkSchedulerThroughput.
func SchedulerThroughput(nodes, jobs int, seed int64) SchedStats {
	cl := platform.New(scalePlatform(nodes))
	scfg := slurm.DefaultConfig()
	scfg.ClassAware = true
	scfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	scfg.SleepLadder = []slurm.SleepRung{{AfterIdle: DefaultIdleSleep}}
	ctl := slurm.NewController(cl, scfg)

	specs := workload.Generate(scaleWorkloadParams(nodes, jobs, seed))
	tracked := make([]*slurm.Job, 0, len(specs))
	for _, sp := range specs {
		j := &slurm.Job{
			Name:      fmt.Sprintf("FS-%05d", sp.Index),
			ReqNodes:  sp.Nodes,
			TimeLimit: sim.Time(float64(sp.Runtime) * 4),
			ReqClass:  sp.ReqClass,
			PrefClass: sp.PrefClass,
		}
		// A class-pinned job can never outgrow its class (core.Submit
		// applies the same clamp).
		if j.ReqClass != "" {
			if cc := cl.ClassCount(j.ReqClass); cc > 0 && j.ReqNodes > cc {
				j.ReqNodes = cc
			}
		}
		d := sp.Runtime
		j.Launch = func(j *slurm.Job, _ []*platform.Node) {
			cl.K.Spawn(j.Name, func(p *sim.Proc) {
				p.Sleep(d)
				ctl.JobComplete(j)
			})
		}
		tracked = append(tracked, j)
		at := sp.Arrival
		cl.K.At(at, func() { ctl.Submit(j) })
	}
	cl.K.Run()

	st := SchedStats{Nodes: nodes, Jobs: jobs, KernelEvents: cl.K.Events()}
	for _, j := range tracked {
		if j.State == slurm.StateCompleted {
			st.Completed++
			if j.EndTime > st.Makespan {
				st.Makespan = j.EndTime
			}
		}
	}
	return st
}
