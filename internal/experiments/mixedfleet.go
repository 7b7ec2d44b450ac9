package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// MixedFleetJobs is the workload size of the mixed-fleet study.
const MixedFleetJobs = 40

// MixedFleetFastShares are the swept fleet compositions: the fraction of
// the 65-node machine built from reference-class (Xeon) nodes, the rest
// being efficiency-class. 0.5 is the headline 50:50 ratio.
var MixedFleetFastShares = []float64{0.75, 0.5, 0.25}

// MixedFleetRun is one workload execution on a mixed fleet.
type MixedFleetRun struct {
	Res *metrics.WorkloadResult
	// SlowStretch is the mean execution-time stretch (actual over the
	// reference-speed estimate) across jobs that ever held an
	// efficiency-class node; 0 when no job touched one.
	SlowStretch float64
	// SlowTouched counts jobs whose allocation ever included an
	// efficiency-class node.
	SlowTouched int
	// NodeSec is the total node-seconds held by jobs over the run.
	NodeSec float64
	// FastJ/SlowJ split the cluster energy between reference-class and
	// efficiency-class nodes; UnattribJ is the share not attributed to
	// any job (idle burn, sleep draw, wake transitions).
	FastJ, SlowJ, UnattribJ float64
}

// MixedFleetRow compares three regimes on one fleet composition, all
// running the same seeded workload with power accounting and idle sleep:
// rigid (class-blind, no malleability), malleable (class-blind,
// Algorithm 1), and class-aware (malleable with class demands honored,
// class-affinity placement, and class-priced expansion).
type MixedFleetRow struct {
	Jobs       int
	FastNodes  int
	SlowNodes  int
	Rigid      MixedFleetRun
	Malleable  MixedFleetRun
	ClassAware MixedFleetRun
}

// MakespanGainPct is the makespan reduction of class-aware placement
// relative to class-blind malleable.
func (r MixedFleetRow) MakespanGainPct() float64 {
	return metrics.GainPct(r.Malleable.Res.Makespan.Seconds(), r.ClassAware.Res.Makespan.Seconds())
}

// EnergyGainPct is the energy reduction of class-aware placement
// relative to class-blind malleable.
func (r MixedFleetRow) EnergyGainPct() float64 {
	return metrics.GainPct(r.Malleable.Res.EnergyJ, r.ClassAware.Res.EnergyJ)
}

// mixedPlatform carves the testbed into fast reference-class nodes
// followed by efficiency-class nodes.
func mixedPlatform(fast int) platform.Config {
	pc := platform.Marenostrum3()
	pc.Classes = []platform.MachineClass{
		{Count: fast, Power: energy.DefaultProfile()},
		{Count: pc.Nodes - fast, Power: energy.EfficiencyProfile()},
	}
	return pc
}

// mixedRun executes one regime on the given fleet and collects the
// slow-class stretch from the jobs' class bookkeeping.
func mixedRun(pc platform.Config, classAware bool, specs []workload.Spec) MixedFleetRun {
	cfg := energyConfig(false)
	cfg.Platform = &pc
	cfg.ClassAware = classAware
	sys := core.NewSystem(cfg)
	sys.SubmitAll(specs)
	run := MixedFleetRun{Res: sys.Run()}
	sys.Energy.Flush()
	for _, nd := range sys.Cluster.Nodes {
		if nd.Speed() < 1 {
			run.SlowJ += sys.Energy.NodeJoules(nd.Index)
		} else {
			run.FastJ += sys.Energy.NodeJoules(nd.Index)
		}
	}
	run.UnattribJ = sys.Energy.UnattributedJoules()
	var stretch float64
	for i, j := range sys.Jobs() {
		run.NodeSec += j.NodeSeconds
		if !j.TouchedSlowClass() {
			continue
		}
		run.SlowTouched++
		stretch += j.ExecTime().Seconds() / specs[i].Runtime.Seconds()
	}
	if run.SlowTouched > 0 {
		run.SlowStretch = stretch / float64(run.SlowTouched)
	}
	return run
}

// MixedFleet sweeps fleet compositions against the three regimes. The
// workload carries machine-class demands (workload.DefaultClassMix).
// All regimes honor hard ReqClass pins — a pinned code cannot run on
// the wrong hardware under any scheduler — but the class-blind regimes
// drop the soft preferences and place with no class affinity at all:
// today's behavior, where allocation on a mixed fleet is effectively
// random across classes. fastShares==nil sweeps MixedFleetFastShares.
func MixedFleet(jobs int, fastShares []float64, seed int64) []MixedFleetRow {
	if fastShares == nil {
		fastShares = MixedFleetFastShares
	}
	params := workload.Realistic(jobs, seed)
	params.ClassMix = workload.DefaultClassMix()
	specs := workload.Generate(params)
	blind := workload.StripPreferences(specs)
	var out []MixedFleetRow
	for _, share := range fastShares {
		pc := mixedPlatform(int(share*float64(platform.Marenostrum3().Nodes) + 0.5))
		out = append(out, MixedFleetRow{
			Jobs:       jobs,
			FastNodes:  pc.Classes[0].Count,
			SlowNodes:  pc.Classes[1].Count,
			Rigid:      mixedRun(pc, false, workload.SetFlexible(blind, false)),
			Malleable:  mixedRun(pc, false, workload.SetFlexible(blind, true)),
			ClassAware: mixedRun(pc, true, workload.SetFlexible(specs, true)),
		})
	}
	return out
}

// FormatMixedFleet renders the sweep: per fleet ratio, makespan, energy
// and slow-class stretch for each regime, with class-aware gains over
// class-blind malleable.
func FormatMixedFleet(rows []MixedFleetRow) string {
	var b strings.Builder
	b.WriteString("Mixed fleet: class-blind rigid/malleable vs class-aware placement (same seeded workload)\n")
	fmt.Fprintf(&b, "%9s %10s %10s %10s %8s %10s %10s %10s %8s %9s %9s %9s\n",
		"fast:slow", "rigMk(s)", "malMk(s)", "clsMk(s)", "mkGain%",
		"rig(kJ)", "mal(kJ)", "cls(kJ)", "enGain%",
		"rigStr", "malStr", "clsStr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9s %10.0f %10.0f %10.0f %8.2f %10.0f %10.0f %10.0f %8.2f %9.2f %9.2f %9.2f\n",
			fmt.Sprintf("%d:%d", r.FastNodes, r.SlowNodes),
			r.Rigid.Res.Makespan.Seconds(), r.Malleable.Res.Makespan.Seconds(),
			r.ClassAware.Res.Makespan.Seconds(), r.MakespanGainPct(),
			r.Rigid.Res.EnergyJ/1e3, r.Malleable.Res.EnergyJ/1e3,
			r.ClassAware.Res.EnergyJ/1e3, r.EnergyGainPct(),
			r.Rigid.SlowStretch, r.Malleable.SlowStretch, r.ClassAware.SlowStretch)
	}
	b.WriteString("slow-class exposure (jobs that ever held an efficiency-class node):\n")
	fmt.Fprintf(&b, "%9s %8s %8s %8s\n", "fast:slow", "rigid", "mall", "aware")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9s %8d %8d %8d\n",
			fmt.Sprintf("%d:%d", r.FastNodes, r.SlowNodes),
			r.Rigid.SlowTouched, r.Malleable.SlowTouched, r.ClassAware.SlowTouched)
	}
	return b.String()
}
