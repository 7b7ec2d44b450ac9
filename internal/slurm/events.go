package slurm

import (
	"repro/internal/platform"
	"repro/internal/sim"
)

// EventKind classifies controller events.
type EventKind int

// Controller event kinds.
const (
	EvSubmit EventKind = iota
	EvStart
	EvEnd
	EvCancel
	EvExpand
	EvShrink
	EvDetach
	EvGrow
	EvBoost
	EvSleep           // node dropped to a sleep state after its idle timeout
	EvWake            // a sleeping node started waking for an allocation (JobID charged)
	EvThrottle        // power-cap governor stepped a job's nodes below P0
	EvRestore         // throttled job stepped back toward P0 as headroom returned
	EvThermalThrottle // a node crossed its thermal envelope and its P-state floor deepened
	EvThermalRestore  // a node cooled to the restore threshold and its floor cleared
	EvBoot            // a free node's wake/boot transition started (wake-ahead or provision)
	EvOnline          // a free node's wake/boot transition completed; it is allocatable at full readiness
	EvOffline         // the elastic controller powered a node off (decommission)
	EvFail            // a node crashed (fault injection); it is FAILED until repaired
	EvRepair          // a failed (or boot-unhealthy) node finished repair
	EvRequeue         // a running job lost a node and was killed back to the pending queue
	EvBootFail        // an elastic provision boot failed; the node powered back off
	EvMigrateOrder    // the migration pass ordered a job onto another machine class
	EvMigrate         // the job checkpointed and requeued toward its migration destination

	// Probe kinds report controller work rather than lifecycle changes
	// (see Probe). They must stay last.
	EvPass     // a scheduling pass finished
	EvDecide   // a DMR reconfiguration RPC was answered
	EvLostWork // a shrink-to-survive recovery lost the interrupted batch's work
)

// Probe reports whether k is a probe kind: subscribers see probes, but
// TotalEvents does not count them and lifecycle logs skip them, so the
// lifecycle stream is the same with or without anyone watching the
// controller's work.
func (k EventKind) Probe() bool { return k >= EvPass }

// kindNames are the kinds' log names.
var kindNames = [...]string{
	EvSubmit:          "SUBMIT",
	EvStart:           "START",
	EvEnd:             "END",
	EvCancel:          "CANCEL",
	EvExpand:          "EXPAND",
	EvShrink:          "SHRINK",
	EvDetach:          "DETACH",
	EvGrow:            "GROW",
	EvBoost:           "BOOST",
	EvSleep:           "SLEEP",
	EvWake:            "WAKE",
	EvThrottle:        "THROTTLE",
	EvRestore:         "RESTORE",
	EvThermalThrottle: "THERM_THROTTLE",
	EvThermalRestore:  "THERM_RESTORE",
	EvBoot:            "BOOT",
	EvOnline:          "ONLINE",
	EvOffline:         "OFFLINE",
	EvFail:            "FAIL",
	EvRepair:          "REPAIR",
	EvRequeue:         "REQUEUE",
	EvBootFail:        "BOOTFAIL",
	EvMigrateOrder:    "MIG_ORDER",
	EvMigrate:         "MIGRATE",
	EvPass:            "PASS",
	EvDecide:          "DECIDE",
	EvLostWork:        "LOST_WORK",
}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "?"
	}
	return kindNames[k]
}

// Event is one report on the controller's event stream, its only report.
// Subscribers (SubscribeEvents) receive each event as it happens; the
// controller keeps no log.
type Event struct {
	T     sim.Time
	Kind  EventKind
	JobID int
	// Nodes is the job's width for job kinds and 1 for node kinds, with
	// one exception: DECIDE carries the width the policy decided for, 0
	// when no policy saw the request.
	Nodes int
	Info  string
	// Set holds the nodes the event moved: the allocated nodes for START
	// and GROW, the parked nodes for DETACH, the released nodes for
	// SHRINK, END, REQUEUE and MIGRATE (none for a shrink-to-survive,
	// whose dead nodes go to repair), the re-clocked nodes for THROTTLE
	// and RESTORE, and the node itself for node kinds. It aliases
	// controller state: read it inside the callback, never keep it.
	Set []*platform.Node
	// Start is the RPC arrival time of a DECIDE event.
	Start sim.Time
	// Value is seconds: the work lost for REQUEUE and LOST_WORK, the
	// modeled checkpoint/restart cost for MIGRATE.
	Value float64
}

// Stats tallies what the event stream does not carry one event for —
// the scheduler's internal work and the power-cap governor's decisions —
// together with the per-feature totals a report prints. The controller
// keeps it always; Controller.Stats returns a snapshot.
type Stats struct {
	// Scheduling: passes (one PASS event each), starts by the priority
	// pass and by EASY backfill, backfill candidates examined, placement
	// lookups that reused a cached affinity ordering (PickHits) or built
	// a new one (PickMisses) — one ordering per placement variant and
	// free-pool version serves every width — and free-pool membership
	// changes.
	Passes, MainStarts, BackfillStarts, BackfillScanned int
	PickHits, PickMisses, FreePoolOps                   int
	// Power cap: starts admitted at P0 or below it, starts deferred, and
	// governor steps deeper or back toward P0 (an admission below P0 is
	// not a step).
	CapAdmitP0, CapAdmitDeep, CapDeferred, CapThrottles, CapRestores int
	// Faults: node crashes, rigid requeues (from scratch or checkpoint),
	// malleable shrink-to-survive recoveries, failed provision boots, and
	// the work lost to failures in node-set seconds.
	Failures, Requeues, Shrinks, BootFails int
	LostWorkS                              float64
	// Migration: orders placed, orders executed (checkpoint + requeue),
	// and the modeled C/R cost charged in seconds.
	MigrationOrders, Migrations int
	MigratedS                   float64
	// Elastic fleet: boots initiated (provision and wake-ahead) and
	// power-offs.
	Boots, Decommissions int
}
