// Package slurm implements the workload manager of the reproduction: a
// resource controller with a priority-ordered pending queue, EASY
// backfill scheduling, job dependencies, and — the part the paper adds —
// the job-resize primitives of Section III (update a job's node count,
// detach nodes from a job, cancel, grow), plus a pluggable resource
// selection policy used for reconfiguration decisions (Algorithm 1 lives
// in the selectdmr subpackage).
//
// The controller also owns failure recovery (faults.go): node crashes
// drawn by a pluggable FaultModel (internal/faults is the production
// injector) requeue rigid jobs — from scratch or from their last
// checkpoint — and shrink malleable jobs onto the survivors; see the
// "Fault tolerance" section of DESIGN.md for the state machine and the
// recovery decision table.
package slurm

import (
	"repro/internal/platform"
	"repro/internal/sim"
)

// JobState is the lifecycle state of a job.
type JobState int

// Job lifecycle states.
const (
	StatePending JobState = iota
	StateRunning
	StateCompleted
	StateCancelled
)

func (s JobState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateRunning:
		return "RUNNING"
	case StateCompleted:
		return "COMPLETED"
	case StateCancelled:
		return "CANCELLED"
	}
	return "UNKNOWN"
}

// DepType is the kind of a job dependency.
type DepType int

// Dependency kinds. DepExpand mirrors Slurm's --dependency=expand:<jobid>
// used by the paper's resizer jobs: the dependent job is only eligible
// while the target job is running, and its allocation is destined to be
// merged into the target.
const (
	DepNone DepType = iota
	DepAfterAny
	DepExpand
)

// Dependency gates a job's eligibility on another job.
type Dependency struct {
	Type  DepType
	JobID int
}

// LaunchFunc starts a job's application on its allocated nodes. It runs
// in kernel context and must not block; it should spawn processes.
type LaunchFunc func(j *Job, nodes []*platform.Node)

// Job is a unit of work managed by the controller.
type Job struct {
	ID   int
	Name string

	// Requested geometry. Rigid jobs have MinNodes == MaxNodes ==
	// ReqNodes. The moldable-submission extension (paper §X future work)
	// sets MinNodes < MaxNodes and lets the scheduler choose at start.
	ReqNodes int
	MinNodes int
	MaxNodes int

	// PrefNodes is the job's preferred start width for moldable
	// submissions (0 = none). Under class-aware placement the scheduler
	// refuses to mold a start below it (Controller.startFloor): starting
	// on a sliver of the class is a trap at fleet scale, because a deep
	// queue never leaves free nodes for the DMR policy to regrow the job.
	PrefNodes int

	// Machine-class demands (heterogeneous fleets). ReqClass is a hard
	// constraint: the job only ever runs on nodes of that class (the
	// Slurm --constraint analog). PrefClass is a soft affinity: the
	// allocator orders matching nodes first but falls back to any class.
	ReqClass  string
	PrefClass string

	TimeLimit  sim.Time // user runtime estimate, drives backfill reservations
	SubmitTime sim.Time
	StartTime  sim.Time
	EndTime    sim.Time

	State      JobState
	Dependency Dependency
	Boosted    bool // max-priority boost (Algorithm 1's set_max_priority)
	Flexible   bool // participates in DMR reconfiguration
	Resizer    bool // internal resizer job from the expand dance; never launched

	Launch LaunchFunc
	OnEnd  func(j *Job) // invoked at completion or cancellation

	// OnNodeFail, when set, makes the job fault-aware: a crash on one of
	// its nodes notifies the handler (kernel context, inside the crash
	// event) instead of requeueing on the spot. The handler — the nanos
	// runtime registers one for malleable jobs — decides at the job's
	// next synchronization point whether to shrink to the survivors
	// (CollectFailed) or give up and requeue (RequeueFailed). The hook
	// belongs to one incarnation: completion and both requeues clear it,
	// so a restart's launch registers its own.
	OnNodeFail func(j *Job, n *platform.Node)

	// Fault-recovery bookkeeping. ProtectedAt is the restart point a
	// failure falls back to: stamped at every (re)start and advanced by
	// MarkProtected when a checkpoint commits. Requeues counts rigid
	// recoveries; LostWorkS accumulates node-set seconds of work redone.
	ProtectedAt sim.Time
	Requeues    int
	LostWorkS   float64

	// Incarnation distinguishes the job's successive launches: bumped on
	// every crash requeue and every live migration. Runtimes capture it at
	// launch and treat a mismatch as "this generation is dead" — unlike
	// Requeues it also advances on voluntary checkpoint/restart moves, so
	// a migrated-away incarnation can never complete or mutate the job.
	Incarnation int

	// Live-migration bookkeeping: how many checkpoint/restart moves the
	// job made and the modeled C/R cost it paid for them (the price the
	// scheduler charged when ordering each move).
	Migrations int
	MigratedS  float64

	alloc          []*platform.Node
	onResizerStart func(*Job) // resizer jobs: fired when allocated

	// Live-migration state. stateBytes is the application's registered
	// checkpoint footprint (0 = unknown: the job is not a migration
	// candidate). migrateTo pins the restart of an in-flight migration:
	// MigrateRequeue parks the destination class in ReqClass so every
	// scheduler path honors it, and startJob clears the pin once the job
	// lands there.
	stateBytes int64
	migrateTo  string

	// Power-cap governor state: the P-state the job's nodes currently
	// run at (0 = full speed) and when the current throttle episode
	// began. ThrottledSec accumulates closed episodes.
	pstate      int
	throttledAt sim.Time

	// bookkeeping for metrics
	ResizeCount   int
	NodeSeconds   float64 // integral of allocated nodes over time
	ThrottledSec  float64 // total seconds spent below P0 under the power cap
	lastAllocated sim.Time
	minClassSpeed float64 // slowest P0 speed ever allocated (0 = never allocated)

	// jobSpeed cache: the slowest node speed at P-state speedFor-1
	// (0 = not cached). Allocation changes reset it; P-state moves miss
	// the key naturally. Reservation pricing reads jobSpeed for every
	// running job on every pass, so recomputing the min over the
	// allocation each time is a real cost at fleet scale.
	speedFor int
	speedVal float64
}

// invalidateSpeed drops the cached jobSpeed after an allocation change.
func (j *Job) invalidateSpeed() { j.speedFor = 0 }

// ClassEligible reports whether node nd satisfies the job's hard class
// constraint (every node qualifies for an unconstrained job).
func (j *Job) ClassEligible(nd *platform.Node) bool {
	return j.ReqClass == "" || nd.Class() == j.ReqClass
}

// MinClassSpeed returns the slowest machine-class P0 speed among every
// node the job was ever allocated, or 1 if it never held one — the
// mixed-fleet experiments' slow-class stretch is computed from it.
func (j *Job) MinClassSpeed() float64 {
	if j.minClassSpeed == 0 {
		return 1
	}
	return j.minClassSpeed
}

// TouchedSlowClass reports whether the job ever held a node slower than
// the reference class.
func (j *Job) TouchedSlowClass() bool { return j.MinClassSpeed() < 1 }

// noteClassSpeeds folds freshly allocated nodes into the slow-class
// bookkeeping.
func (j *Job) noteClassSpeeds(nodes []*platform.Node) {
	for _, nd := range nodes {
		if s := nd.Speed(); j.minClassSpeed == 0 || s < j.minClassSpeed {
			j.minClassSpeed = s
		}
	}
}

// Alloc returns the job's current node allocation (nil when not running).
func (j *Job) Alloc() []*platform.Node { return j.alloc }

// NNodes returns the current allocation size.
func (j *Job) NNodes() int { return len(j.alloc) }

// PState returns the P-state the job's nodes run at (0 = full speed;
// higher under power-cap throttling).
func (j *Job) PState() int { return j.pstate }

// WaitTime returns how long the job waited in the queue; valid once
// started.
func (j *Job) WaitTime() sim.Time { return j.StartTime - j.SubmitTime }

// ExecTime returns the job's execution time; valid once ended.
func (j *Job) ExecTime() sim.Time { return j.EndTime - j.StartTime }

// CompletionTime returns wait plus execution time (the paper's
// "completion time").
func (j *Job) CompletionTime() sim.Time { return j.EndTime - j.SubmitTime }

// accumulateNodeSeconds integrates allocation size up to now, then marks
// now as the new accounting origin.
func (j *Job) accumulateNodeSeconds(now sim.Time) {
	if j.State == StateRunning {
		j.NodeSeconds += float64(len(j.alloc)) * (now - j.lastAllocated).Seconds()
	}
	j.lastAllocated = now
}
