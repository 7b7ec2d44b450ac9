package slurm

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/energy"
	"repro/internal/sim"
)

// Live migration: a first-class scheduler move that relocates a running
// job onto a different machine class through a checkpoint/restart cycle.
// The controller runs a periodic decision pass (migrateTick, coalesced
// like the elastic adapt loop) that asks the configured policy — any
// SelectPlugin that also implements MigrationPicker — for at most one
// move at a time. An accepted decision becomes an order; nothing happens
// to the job until its runtime polls the order at a synchronization
// point (a batch head), writes the full application state through the
// slot-limited PFS, and calls MigrateRequeue. Only then does the job
// give up its nodes: it re-enters the pending queue with its restart
// pinned to the destination class (ReqClass carries the pin so every
// scheduler path — reservation, backfill, wake-ahead — honors it), and
// resumes from the checkpoint it just wrote.
//
// The price of a move is modeled up front by the checkpointer's
// EstimateFullResize: the PFS write at the old width, the requeue
// latency, the relaunch spawn, and the PFS read at the new width. The
// policy only orders a move whose gain clears a fixed multiple of that
// cost (selectdmr's migrateMargin), and the accounting charges the
// modeled cost to the job (migrations / migrated_s columns) — the
// simulated PFS traffic then pays the real one. Moves are always
// cross-class: re-picking within the same class would bounce the job
// back onto the nodes it just left.

// MigrationConfig attaches the live-migration decision pass.
type MigrationConfig struct {
	// Interval is the decision-pass period (default 10 minutes). Each
	// pass orders at most one migration; the timer re-arms while work
	// remains, exactly like the elastic adapt loop.
	Interval sim.Time
}

// migrationOrder is one in-flight move: placed by the decision pass,
// consumed by the job's runtime at its next synchronization point.
type migrationOrder struct {
	class  string
	reason string
	cost   sim.Time
	bytes  int64
}

// MigrationStats aggregates a run's migration activity.
type MigrationStats struct {
	Orders     int     // decision passes that placed an order
	Migrations int     // orders actually executed (checkpoint + requeue)
	MigratedS  float64 // total modeled C/R cost charged, in seconds
}

// migrationState is the controller-side migration machinery.
type migrationState struct {
	cfg    MigrationConfig
	cp     *checkpoint.Checkpointer
	picker MigrationPicker
	armed  bool
	orders map[int]*migrationOrder // keyed access only (determinism)
	stats  MigrationStats
}

// MigrationDecision is one move the policy wants made.
type MigrationDecision struct {
	Job    *Job
	Class  string   // destination machine class; pins the restart
	Reason string   // "evacuate", "defragment" or "consolidate"
	Cost   sim.Time // modeled checkpoint/restart price (MigrateView.MoveCost)
}

// MigrationPicker is the migration half of a scheduling policy: given a
// read-only view of the cluster, pick at most one job worth moving. The
// selectdmr policies implement it.
type MigrationPicker interface {
	PickMigration(v *MigrateView) (MigrationDecision, bool)
}

// initMigration validates and attaches the migration machinery.
func (c *Controller) initMigration() {
	mc := *c.cfg.Migration
	if mc.Interval <= 0 {
		mc.Interval = 600 * sim.Second
	}
	c.migration = &migrationState{
		cfg:    mc,
		cp:     checkpoint.New(c.cluster),
		picker: c.cfg.Policy.(MigrationPicker), // Validate checked it
		orders: make(map[int]*migrationOrder),
	}
}

// MigrationStats returns the run's migration counters (zero when live
// migration is not configured).
func (c *Controller) MigrationStats() MigrationStats {
	if c.migration == nil {
		return MigrationStats{}
	}
	return c.migration.stats
}

// SetStateBytes registers a job's checkpointable state footprint — the
// application reports it once its data is initialized. A job without a
// registered footprint is never a migration candidate: the scheduler
// cannot price a move it cannot size.
func (c *Controller) SetStateBytes(j *Job, total int64) {
	if total > 0 {
		j.stateBytes = total
	}
}

// MigrationOrdered reports whether a migration order is pending for the
// job — the runtime polls it at batch heads.
func (c *Controller) MigrationOrdered(j *Job) bool {
	return c.migration != nil && c.migration.orders[j.ID] != nil
}

// dropMigrationOrder voids any pending order: the job completed or was
// crash-requeued before its runtime picked the order up, and the next
// incarnation must not act on a stale destination.
func (c *Controller) dropMigrationOrder(j *Job) {
	if c.migration != nil {
		delete(c.migration.orders, j.ID)
	}
}

// armMigrate schedules a coalesced migration decision pass.
func (c *Controller) armMigrate() {
	m := c.migration
	if m == nil || m.armed {
		return
	}
	m.armed = true
	c.k.After(m.cfg.Interval, func() {
		m.armed = false
		c.migrateTick()
	})
}

// migrateTick runs one decision pass: with no move in flight, ask the
// policy for one. The timer re-arms while the cluster has work, so the
// pass keeps evaluating as load and thermals evolve.
func (c *Controller) migrateTick() {
	m := c.migration
	if len(m.orders) == 0 {
		if d, ok := m.picker.PickMigration(&MigrateView{c: c}); ok {
			c.orderMigration(d)
		}
	}
	if len(c.running) > 0 || len(c.pending) > 0 {
		c.armMigrate()
	}
}

// orderMigration records the decision as a pending order. The job keeps
// running untouched until its runtime reaches a synchronization point
// and consumes the order.
func (c *Controller) orderMigration(d MigrationDecision) {
	m := c.migration
	j := d.Job
	m.orders[j.ID] = &migrationOrder{class: d.Class, reason: d.Reason, cost: d.Cost, bytes: j.stateBytes}
	m.stats.Orders++
	c.log(EvMigrateOrder, j, fmt.Sprintf("to=%s reason=%s cost=%.1fs", d.Class, d.Reason, d.Cost.Seconds()))
	if c.tel != nil {
		c.tel.migrateOrders.Inc()
	}
}

// MigrateRequeue executes a pending order: the runtime has written the
// job's checkpoint, every rank has acknowledged, and the job now gives
// up its allocation and re-pends with its restart pinned to the order's
// destination class. The incarnation bump kills every live generation —
// a migrated-away process set can neither complete nor mutate the job —
// and the restart resumes from the checkpoint via the recovery path.
// Process context (rank 0 of the migrating job).
func (c *Controller) MigrateRequeue(j *Job) {
	m := c.migration
	if m == nil || j.State != StateRunning {
		return
	}
	ord := m.orders[j.ID]
	if ord == nil {
		return
	}
	delete(m.orders, j.ID)
	now := c.k.Now()
	j.Incarnation++
	j.Migrations++
	j.MigratedS += ord.cost.Seconds()
	m.stats.Migrations++
	m.stats.MigratedS += ord.cost.Seconds()
	j.accumulateNodeSeconds(now)
	c.settleThrottle(j)
	nodes := j.alloc
	j.alloc = nil
	j.invalidateSpeed()
	j.pstate = 0
	delete(c.running, j.ID)
	c.removeEndOrder(j)
	c.releaseNodes(nodes)
	// Pin the restart: ReqClass makes every scheduler path place the job
	// on the destination class only; startJob clears the pin (the job
	// submitted unconstrained — candidates always have ReqClass == "").
	j.ReqClass = ord.class
	j.migrateTo = ord.class
	j.State = StatePending
	c.insertPending(j)
	c.log(EvMigrate, j, fmt.Sprintf("to=%s reason=%s cost=%.1fs", ord.class, ord.reason, ord.cost.Seconds()))
	if c.tel != nil {
		c.tel.migrations.Inc()
		c.tel.migrateCost.Observe(ord.cost.Seconds())
		c.tel.jobSpan(now, j.ID, "pend")
	}
	c.sample()
	c.armAdapt()
	c.armMigrate()
	c.kick()
}

// MigrateView is the read-only cluster view a MigrationPicker decides
// over. Every accessor is deterministic: candidates come from the
// endOrder walk sorted by ID, classes from node index order.
type MigrateView struct {
	c *Controller
}

// Now returns the current virtual time.
func (v *MigrateView) Now() sim.Time { return v.c.k.Now() }

// QueueDepth counts pending non-resizer jobs: consolidation only makes
// sense when nothing is waiting for the nodes it would free.
func (v *MigrateView) QueueDepth() int {
	n := 0
	for _, j := range v.c.pending {
		if !j.Resizer {
			n++
		}
	}
	return n
}

// Candidates returns the running jobs a move may target, sorted by ID:
// real jobs with a registered state footprint, no hard class constraint
// of their own, and no order already pending.
func (v *MigrateView) Candidates() []*Job {
	c := v.c
	out := make([]*Job, 0, len(c.endOrder))
	for _, r := range c.endOrder {
		j := r.j
		if j.Resizer || j.State != StateRunning || j.stateBytes <= 0 || j.ReqClass != "" {
			continue
		}
		if c.migration.orders[j.ID] != nil {
			continue
		}
		out = append(out, j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Classes returns the fleet's machine classes in node index order.
func (v *MigrateView) Classes() []string {
	seen := make(map[string]bool)
	out := make([]string, 0, 2)
	for _, nd := range v.c.cluster.Nodes {
		if cl := nd.Class(); !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	return out
}

// classProfile finds the power profile of a class (node index order).
func (v *MigrateView) classProfile(class string) (energy.Profile, bool) {
	for _, nd := range v.c.cluster.Nodes {
		if nd.Class() == class {
			return nd.Power, true
		}
	}
	return energy.Profile{}, false
}

// ClassSpeed returns a class's P0 speed relative to the reference class
// (0 for an unknown class).
func (v *MigrateView) ClassSpeed(class string) float64 {
	p, ok := v.classProfile(class)
	if !ok {
		return 0
	}
	return p.SpeedAt(0)
}

// ClassActiveW returns a class's per-node P0 draw in watts.
func (v *MigrateView) ClassActiveW(class string) float64 {
	p, ok := v.classProfile(class)
	if !ok {
		return 0
	}
	return p.ActiveW(0)
}

// FreeOfClass counts the free nodes of a class (awake, booting or
// asleep — a sleeping node wakes on allocation).
func (v *MigrateView) FreeOfClass(class string) int {
	if cp := v.c.pool.byClass[class]; cp != nil {
		return cp.count()
	}
	return 0
}

// ClassTotal counts every node of a class, free or not — a restart
// wider than the class can never be placed there.
func (v *MigrateView) ClassTotal(class string) int {
	return v.c.cluster.ClassCount(class)
}

// AllocClasses returns the distinct classes of the job's allocation, in
// allocation order.
func (v *MigrateView) AllocClasses(j *Job) []string {
	seen := make(map[string]bool)
	out := make([]string, 0, 2)
	for _, nd := range j.alloc {
		if cl := nd.Class(); !seen[cl] {
			seen[cl] = true
			out = append(out, cl)
		}
	}
	return out
}

// AllocIn counts the job's allocated nodes of the given class: a
// destination the job already partially occupies regains those nodes at
// the restart, so they count toward the available width.
func (v *MigrateView) AllocIn(j *Job, class string) int {
	n := 0
	for _, nd := range j.alloc {
		if nd.Class() == class {
			n++
		}
	}
	return n
}

// AllocActiveW sums the job's allocation P0 draw in watts — the power
// the checkpoint write burns and the consolidation would retire.
func (v *MigrateView) AllocActiveW(j *Job) float64 {
	w := 0.0
	for _, nd := range j.alloc {
		w += nd.Power.ActiveW(0)
	}
	return w
}

// JobSpeed returns the job's live effective speed: the slowest node of
// its allocation at its current P-state, thermal floors included.
func (v *MigrateView) JobSpeed(j *Job) float64 { return v.c.jobSpeed(j) }

// Remaining estimates the job's remaining wall time at its current
// speed, from the speed-stretched time-limit end the scheduler already
// prices reservations with.
func (v *MigrateView) Remaining(j *Job) sim.Time {
	rem := v.c.jobEndEstimate(j) - v.c.k.Now()
	if rem < 0 {
		rem = 0
	}
	return rem
}

// RestartNodes returns the width the job restarts at after a requeue
// (ReqNodes for rigid jobs, the moldable start floor otherwise).
func (v *MigrateView) RestartNodes(j *Job) int { return v.c.needNodes(j) }

// MoveCost prices one move through the checkpoint cost model: the PFS
// write at the current width, the requeue latency, the relaunch spawn
// and the PFS read at the restart width — all through the slot-limited
// PFS contention model the simulated transfer then actually pays.
func (v *MigrateView) MoveCost(j *Job, newP int) sim.Time {
	return v.c.migration.cp.EstimateFullResize(j.stateBytes, j.NNodes(), newP, v.c.cfg.SchedDelay)
}
