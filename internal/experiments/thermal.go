package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// The thermal study exercises the node power-state dynamics end to end.
// Part one (Thermal) runs the same sustained mixed-fleet workload under
// three regimes — rigid, class-blind malleable, class-aware — twice
// each: once with ideal machines and once with thermal envelopes, so
// the throttle-driven makespan stretch is measured per regime. The
// paper's thesis extends to thermals: malleability lets the workload
// reshape around machines the physics slowed down, halving the
// relative stretch at moderate load. Honest caveat at dense load: the
// flexible regimes pack the machine so tightly that heat has nowhere
// to dissipate and their percentage stretch converges with rigid's —
// while their absolute makespans stay roughly 2x better. Part two
// (LadderSweep) runs a sparse workload — long idle gaps between jobs —
// across sleep configurations: the single shallow S-state (today's
// default), the single deep S-state, and the two-rung ladder, showing
// deep rungs beat the shallow baseline on energy once gaps are long
// enough to amortize the wake cost.

// ThermalJobs is the sustained-load workload size of the study.
const ThermalJobs = 40

// LadderJobs is the sparse-load workload size of the ladder sweep.
const LadderJobs = 15

// ThermalRun is one regime execution with the envelope on, paired with
// its envelope-off baseline.
type ThermalRun struct {
	Res  *metrics.WorkloadResult
	Base *metrics.WorkloadResult // same regime on ideal (non-throttling) machines
	// ThrottleEvents / RestoreEvents count thermal DVFS steps.
	ThrottleEvents int
	RestoreEvents  int
	// ThermalNodeSec sums the thermal_throttled_s accounting column.
	ThermalNodeSec float64
	// PeakC is the hottest node temperature observed.
	PeakC float64
}

// StretchPct is the makespan the thermal envelope costs this regime,
// as a percentage of its ideal-machine makespan.
func (r ThermalRun) StretchPct() float64 {
	base := r.Base.Makespan.Seconds()
	if base == 0 {
		return 0
	}
	return (r.Res.Makespan.Seconds() - base) / base * 100
}

// ThermalRow compares the three regimes on one fleet.
type ThermalRow struct {
	Jobs                 int
	FastNodes, SlowNodes int
	Rigid                ThermalRun
	Malleable            ThermalRun
	ClassAware           ThermalRun
}

// Thermal runs the sustained-load study on the 50:50 mixed fleet.
func Thermal(jobs int, seed int64) ThermalRow {
	params := workload.Realistic(jobs, seed)
	params.ClassMix = workload.DefaultClassMix()
	specs := workload.Generate(params)
	blind := workload.StripPreferences(specs)
	pc := mixedPlatform(33)
	row := ThermalRow{Jobs: jobs, FastNodes: pc.Classes[0].Count, SlowNodes: pc.Classes[1].Count}
	regime := func(classAware bool, regimeSpecs []workload.Spec) ThermalRun {
		run := ThermalRun{}
		run.Base, _ = thermalRunOn(pc, classAware, false, regimeSpecs, nil)
		var sys *core.System
		run.Res, sys = thermalRunOn(pc, classAware, true, regimeSpecs, func(ev slurm.Event) {
			switch ev.Kind {
			case slurm.EvThermalThrottle:
				run.ThrottleEvents++
			case slurm.EvThermalRestore:
				run.RestoreEvents++
			}
		})
		for _, rec := range sys.Ctl.Accounting() {
			run.ThermalNodeSec += rec.ThermalThrottledSec
		}
		if run.Res.Temp != nil {
			run.PeakC = run.Res.Temp.PeakC(run.Res.Makespan)
		}
		return run
	}
	row.Rigid = regime(false, workload.SetFlexible(blind, false))
	row.Malleable = regime(false, workload.SetFlexible(blind, true))
	row.ClassAware = regime(true, workload.SetFlexible(specs, true))
	return row
}

// thermalRunOn executes one regime on the fleet, with or without
// envelopes; onEvent, when non-nil, observes the controller's events.
func thermalRunOn(pc platform.Config, classAware, thermal bool, specs []workload.Spec, onEvent func(slurm.Event)) (*metrics.WorkloadResult, *core.System) {
	cfg := energyConfig(false)
	cfg.Platform = &pc
	cfg.ClassAware = classAware
	cfg.Thermal = thermal
	sys := core.NewSystem(cfg)
	if onEvent != nil {
		sys.Ctl.SubscribeEvents(onEvent)
	}
	sys.SubmitAll(specs)
	return sys.Run(), sys
}

// LadderRun is one sleep configuration's execution of the sparse
// workload.
type LadderRun struct {
	Name       string
	Res        *metrics.WorkloadResult
	SleepSteps int // EvSleep events (rung descents included)
	Wakes      int
}

// LadderSweep compares sleep configurations on a sparse rigid workload:
// jobs arrive far enough apart that idle nodes see both rungs.
func LadderSweep(jobs int, seed int64) []LadderRun {
	params := workload.Realistic(jobs, seed)
	params.MeanArrival = 15 * sim.Minute
	specs := workload.SetFlexible(workload.Generate(params), false)
	run := func(name string, mut func(*core.Config)) LadderRun {
		cfg := energyConfig(false)
		mut(&cfg)
		sys := core.NewSystem(cfg)
		out := LadderRun{Name: name}
		sys.Ctl.SubscribeEvents(func(ev slurm.Event) {
			if ev.Kind == slurm.EvSleep {
				out.SleepSteps++
			}
		})
		sys.SubmitAll(specs)
		out.Res = sys.Run()
		out.Wakes = sys.Energy.Wakes()
		return out
	}
	return []LadderRun{
		run("single-s0", func(*core.Config) {}), // energyConfig's one rung → S0
		run("single-s1", func(c *core.Config) {
			c.SleepLadder = []slurm.SleepRung{{AfterIdle: DefaultIdleSleep, State: 1}}
		}),
		run("ladder", func(c *core.Config) { c.SleepLadder = slurm.DefaultSleepLadder() }),
	}
}

// FormatThermal renders the sustained-load study.
func FormatThermal(r ThermalRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Thermal DVFS: makespan stretch under the envelope (%d fast : %d efficiency, %d jobs)\n",
		r.FastNodes, r.SlowNodes, r.Jobs)
	fmt.Fprintf(&b, "%11s %12s %12s %9s %10s %10s %9s %8s\n",
		"regime", "ideal(s)", "thermal(s)", "stretch%", "throttles", "restores", "thr(ns)", "peak°C")
	for _, row := range []struct {
		name string
		run  ThermalRun
	}{
		{"rigid", r.Rigid}, {"malleable", r.Malleable}, {"classaware", r.ClassAware},
	} {
		fmt.Fprintf(&b, "%11s %12.0f %12.0f %9.2f %10d %10d %9.0f %8.1f\n",
			row.name, row.run.Base.Makespan.Seconds(), row.run.Res.Makespan.Seconds(),
			row.run.StretchPct(), row.run.ThrottleEvents, row.run.RestoreEvents,
			row.run.ThermalNodeSec, row.run.PeakC)
	}
	return b.String()
}

// FormatLadder renders the sparse-load sleep sweep.
func FormatLadder(runs []LadderRun) string {
	var b strings.Builder
	b.WriteString("S-state ladder: sparse-load energy by sleep configuration\n")
	fmt.Fprintf(&b, "%10s %12s %12s %10s %8s %8s\n",
		"config", "makespan(s)", "energy(kJ)", "avg(W)", "sleeps", "wakes")
	for _, run := range runs {
		fmt.Fprintf(&b, "%10s %12.0f %12.0f %10.0f %8d %8d\n",
			run.Name, run.Res.Makespan.Seconds(), run.Res.EnergyJ/1e3,
			run.Res.AvgPowerW, run.SleepSteps, run.Wakes)
	}
	return b.String()
}

// WriteThermalSummaryCSV dumps both halves of the study as one CSV (the
// golden-pinned artifact of -exp thermal).
func WriteThermalSummaryCSV(w io.Writer, r ThermalRow, ladders []LadderRun) error {
	if _, err := fmt.Fprintln(w, "study,variant,jobs,makespan_s,energy_j,stretch_pct,throttle_events,restore_events,thermal_node_s,peak_temp_c,sleep_steps,wakes"); err != nil {
		return err
	}
	for _, row := range []struct {
		name string
		run  ThermalRun
	}{
		{"rigid", r.Rigid}, {"malleable", r.Malleable}, {"classaware", r.ClassAware},
	} {
		if _, err := fmt.Fprintf(w, "thermal,%s,%d,%.3f,%.1f,%.2f,%d,%d,%.1f,%.2f,0,0\n",
			row.name, r.Jobs, row.run.Res.Makespan.Seconds(), row.run.Res.EnergyJ,
			row.run.StretchPct(), row.run.ThrottleEvents, row.run.RestoreEvents,
			row.run.ThermalNodeSec, row.run.PeakC); err != nil {
			return err
		}
	}
	for _, run := range ladders {
		if _, err := fmt.Fprintf(w, "ladder,%s,%d,%.3f,%.1f,0,0,0,0,0,%d,%d\n",
			run.Name, run.Res.Jobs, run.Res.Makespan.Seconds(), run.Res.EnergyJ,
			run.SleepSteps, run.Wakes); err != nil {
			return err
		}
	}
	return nil
}
