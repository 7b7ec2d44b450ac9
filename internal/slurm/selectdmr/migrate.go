package selectdmr

import (
	"repro/internal/sim"
	"repro/internal/slurm"
)

// Migration picking: the scheduler-side half of cross-class live
// migration. The controller's decision pass hands the policy a
// read-only MigrateView and asks for at most one move; the policy
// answers with a (job, destination class, reason, cost) tuple only when
// the projected gain clears migrateMargin times the modeled
// checkpoint/restart price. Three reasons, tried in order per candidate:
//
//   - evacuate: the job runs below its allocation classes' nominal P0
//     speed (a thermal floor is binding). Moving to a cooler class
//     restores throughput; worth it when the wall time saved exceeds
//     the C/R cost by the margin.
//   - defragment: the job straddles classes, so its coupled step loop
//     runs at the slowest one while the faster nodes burn full power at
//     fractional throughput. A restart onto one pure class — counting
//     the nodes the job would give back to it — cleans the placement.
//   - consolidate: with an empty queue, move a lone job off a premium
//     class onto the efficiency class when the joules saved clear the
//     margin, so the vacated rack can ride the sleep ladder down to
//     power-off. Consolidation trades the job's speed for fleet watts;
//     the maxSlowdown cap bounds how much of the job's pace it may
//     give up.
//
// Candidates arrive in ID order and classes in node index order, so the
// pick is deterministic.

var _ slurm.MigrationPicker = (*Policy)(nil)
var _ slurm.MigrationPicker = (*EnergyAware)(nil)

const speedSlack = 1e-9

const (
	// migrateMargin is the multiple of the modeled checkpoint/restart
	// cost a move's projected gain must clear: migrate only when the
	// stretch (or energy) saved safely exceeds the checkpoint paid.
	migrateMargin = 2
	// maxSlowdown caps the step-loop slowdown a consolidation move may
	// impose on the job (live speed over destination P0 speed). The
	// scheduler's only completion promise is the time-limit end, and the
	// limit is an estimate several times the real runtime — gating the
	// stretched remainder against it would veto every move to a slower
	// class. Bounding the slowdown instead keeps the job's completion
	// within the same factor of the promise.
	maxSlowdown = 2
)

// PickMigration chooses at most one migration-worthy job.
func (p *Policy) PickMigration(v *slurm.MigrateView) (slurm.MigrationDecision, bool) {
	quiet := v.QueueDepth() == 0
	for _, j := range v.Candidates() {
		live := v.JobSpeed(j)
		rem := v.Remaining(j)
		if live <= 0 || rem <= 0 {
			continue
		}
		src := v.AllocClasses(j)
		need := v.RestartNodes(j)
		if d, ok := pickEvacuate(v, j, src, live, rem, need); ok {
			return d, true
		}
		if d, ok := pickDefragment(v, j, src, live, rem, need); ok {
			return d, true
		}
		if quiet {
			if d, ok := pickConsolidate(v, j, src, live, rem, need); ok {
				return d, true
			}
		}
	}
	return slurm.MigrationDecision{}, false
}

// PickMigration delegates to the Algorithm 1 core: the energy bias
// lives in the consolidate reason itself, which already trades job
// speed for fleet watts.
func (p *EnergyAware) PickMigration(v *slurm.MigrateView) (slurm.MigrationDecision, bool) {
	return p.base.PickMigration(v)
}

// contains reports whether class is one of the job's allocation classes.
func contains(classes []string, class string) bool {
	for _, c := range classes {
		if c == class {
			return true
		}
	}
	return false
}

// stretched converts a remaining wall time at the live speed into the
// wall time the same work takes at the destination speed.
func stretched(rem sim.Time, live, dst float64) sim.Time {
	return sim.Time(float64(rem) * live / dst)
}

// pickEvacuate moves a thermally throttled job to a class that restores
// its throughput. Same-class moves are pointless — node affinity would
// re-pick the hot nodes — so the destination is always a class the job
// holds nothing on.
func pickEvacuate(v *slurm.MigrateView, j *slurm.Job, src []string, live float64, rem sim.Time, need int) (slurm.MigrationDecision, bool) {
	nominal := 0.0
	for _, cl := range src {
		if s := v.ClassSpeed(cl); nominal == 0 || s < nominal {
			nominal = s
		}
	}
	if live >= nominal-speedSlack {
		return slurm.MigrationDecision{}, false // running at full class speed
	}
	for _, dst := range v.Classes() {
		if contains(src, dst) {
			continue
		}
		dstSpeed := v.ClassSpeed(dst)
		if dstSpeed <= live+speedSlack {
			continue
		}
		if v.ClassTotal(dst) < need || v.FreeOfClass(dst) < need {
			continue
		}
		cost := v.MoveCost(j, need)
		saved := rem - stretched(rem, live, dstSpeed)
		if float64(saved) > migrateMargin*float64(cost) {
			return slurm.MigrationDecision{Job: j, Class: dst, Reason: "evacuate", Cost: cost}, true
		}
	}
	return slurm.MigrationDecision{}, false
}

// pickDefragment restarts a class-straddling job onto one pure class.
// The nodes the job holds on the destination count toward the available
// width: the restart gets them back.
func pickDefragment(v *slurm.MigrateView, j *slurm.Job, src []string, live float64, rem sim.Time, need int) (slurm.MigrationDecision, bool) {
	if len(src) < 2 {
		return slurm.MigrationDecision{}, false
	}
	for _, dst := range v.Classes() {
		dstSpeed := v.ClassSpeed(dst)
		if dstSpeed <= live+speedSlack {
			continue
		}
		if v.ClassTotal(dst) < need || v.FreeOfClass(dst)+v.AllocIn(j, dst) < need {
			continue
		}
		cost := v.MoveCost(j, need)
		saved := rem - stretched(rem, live, dstSpeed)
		if float64(saved) > migrateMargin*float64(cost) {
			return slurm.MigrationDecision{Job: j, Class: dst, Reason: "defragment", Cost: cost}, true
		}
	}
	return slurm.MigrationDecision{}, false
}

// pickConsolidate moves a class-pure job to a class with a better
// energy story when nothing is queued for the nodes it frees. The gain
// is in joules — remaining draw on the current allocation versus the
// stretched remainder on the destination, with the C/R window charged
// at the current allocation's draw — and the slowdown the move imposes
// is capped at maxSlowdown.
func pickConsolidate(v *slurm.MigrateView, j *slurm.Job, src []string, live float64, rem sim.Time, need int) (slurm.MigrationDecision, bool) {
	if len(src) != 1 {
		return slurm.MigrationDecision{}, false
	}
	for _, dst := range v.Classes() {
		if dst == src[0] {
			continue
		}
		dstSpeed := v.ClassSpeed(dst)
		if dstSpeed <= 0 || live > dstSpeed*maxSlowdown {
			continue // would give up more pace than the cap allows
		}
		if v.ClassTotal(dst) < need || v.FreeOfClass(dst) < need {
			continue
		}
		cost := v.MoveCost(j, need)
		after := stretched(rem, live, dstSpeed)
		curJ := rem.Seconds() * v.AllocActiveW(j)
		newJ := after.Seconds() * float64(need) * v.ClassActiveW(dst)
		costJ := cost.Seconds() * v.AllocActiveW(j)
		if curJ-newJ > migrateMargin*costJ {
			return slurm.MigrationDecision{Job: j, Class: dst, Reason: "consolidate", Cost: cost}, true
		}
	}
	return slurm.MigrationDecision{}, false
}
