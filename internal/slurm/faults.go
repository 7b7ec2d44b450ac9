package slurm

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/sim"
)

// Fault injection and recovery. The controller owns every recovery path;
// the injector behind the FaultModel interface only decides when
// hardware misbehaves. Crash chains are armed per node: initFaults draws
// each node's first time-to-failure, a crash schedules its repair, and
// the repair re-arms the next life — so a node carries at most one
// pending crash timer and at most one pending repair timer, and the
// chain ends on its own once the injector's horizon passes (the kernel
// drains without cancellation support).
//
// Crash semantics by node state:
//
//	free (awake/booting/asleep)  -> FAILED, out of the pool; a mid-boot
//	                                crash voids bootUntil (stale bootDone
//	                                timers miss their guard) and a
//	                                sleeping crash bumps sleepGen (stale
//	                                ladder or wake-ahead timers no-op)
//	allocated                    -> FAILED; the owning job is notified
//	                                (OnNodeFail) or requeued on the spot
//	powered off (decommissioned) -> no crash: dead hardware; the chain
//	                                re-arms for the node's next life
//
// A repair completing while a job still holds the dead node is parked
// and finalized when the job lets go (release, requeue or recovery
// splice): repaired-in-place would hand the pool a node another job's
// failure handling still references.

// FaultModel is the injector interface the controller consults. All
// methods are deterministic functions of the model's own seeded stream;
// the controller calls them in a fixed order (node index order at init,
// event order afterwards), so a run's fault schedule is reproducible.
type FaultModel interface {
	// NextCrash draws the time-to-failure of one node life, relative to
	// now. ok is false when the crash falls past the model's horizon (or
	// nothing ever crashes): the node's crash chain stops there.
	NextCrash(now sim.Time) (delay sim.Time, ok bool)
	// RepairTime draws one crash's repair duration.
	RepairTime() sim.Time
	// BootFails draws the verdict for one elastic provision boot.
	BootFails() bool
	// BootRetry returns the backoff before boot attempt strike+1.
	BootRetry(strike int) sim.Time
}

// maxStrikes is the consecutive-boot-failure count after which a node
// is marked unhealthy and sent to repair instead of retried.
const maxStrikes = 3

// faultState is the controller-side fault machinery.
type faultState struct {
	model FaultModel

	failed  []bool // node is crashed hardware awaiting repair
	failedN int

	repairPending []bool // a repair timer is in flight (single per node)
	repairParked  []bool // repair finished while a job still held the node

	// Elastic boot-failure state. provBootUntil marks the bootUntil
	// deadline of an in-flight provision boot: only that landing
	// consults BootFails — wake-ahead boots never fail.
	provBootUntil []sim.Time
	strikes       []int
	retryAt       []sim.Time
	unhealthy     []bool
}

// initFaults arms the per-node crash chains. Called from NewController
// after the elastic controller (if any) is attached, so the initial
// draws happen in node index order regardless of configuration.
func (c *Controller) initFaults() {
	n := len(c.cluster.Nodes)
	c.faults = &faultState{
		model:         c.cfg.Faults,
		failed:        make([]bool, n),
		repairPending: make([]bool, n),
		repairParked:  make([]bool, n),
		provBootUntil: make([]sim.Time, n),
		strikes:       make([]int, n),
		retryAt:       make([]sim.Time, n),
		unhealthy:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		c.armCrash(i)
	}
}

// nodeFailed reports whether node i is crashed hardware awaiting repair.
func (c *Controller) nodeFailed(i int) bool {
	return c.faults != nil && c.faults.failed[i]
}

// NodeUnhealthy reports whether node i struck out on provision boots
// and waits for repair outside the elastic rotation.
func (c *Controller) NodeUnhealthy(i int) bool {
	return c.faults != nil && c.faults.unhealthy[i]
}

// armCrash draws and schedules node i's next crash. The chain is
// re-armed by finishRepair (or by a crash landing on powered-off
// hardware), never concurrently, so each node has at most one pending
// crash timer.
func (c *Controller) armCrash(i int) {
	d, ok := c.faults.model.NextCrash(c.k.Now())
	if !ok {
		return
	}
	c.k.After(d, func() { c.crashNode(i) })
}

// crashNode fires node i's crash timer. Kernel context.
func (c *Controller) crashNode(i int) {
	f := c.faults
	n := c.cluster.Nodes[i]
	if f.failed[i] {
		// Unreachable by construction (the chain is dormant while the
		// node is failed); bail without re-arming rather than risk a
		// second chain.
		return
	}
	if c.isOffline(i) || c.owner[i] == heldOwner {
		// Powered-off hardware has nothing to crash, and the held state
		// never outlives the expand dance's single event; re-arm for the
		// node's next life.
		c.armCrash(i)
		return
	}
	// Void timers armed against the live node: a sleeper's ladder rung or
	// wake-ahead pre-boot (generation bump) and a mid-boot completion
	// (bootDone's deadline guard misses on the zeroed bootUntil).
	c.sleepGen[i]++
	c.bootUntil[i] = 0
	c.pool.remove(i) // a no-op unless the node was free
	f.failed[i] = true
	f.failedN++
	c.stats.Failures++
	c.cfg.Energy.NodeFail(i)
	c.logNode(EvFail, n, c.owner[i]) // not heldOwner: that returned above
	if own := c.owner[i]; own > 0 {
		if j := c.running[own]; j != nil {
			j.invalidateSpeed()
			c.repositionEndOrder(j)
			if j.OnNodeFail != nil {
				// The runtime owns recovery: the failure surfaces at the
				// job's next synchronization point (batch head), where it
				// shrinks to its survivors or asks for a requeue.
				j.OnNodeFail(j, n)
			} else {
				// No failure handler: the controller requeues on the
				// spot, inside the crash event, so no allocated node is
				// ever FAILED between events.
				c.requeueFailed(j)
			}
		}
	}
	f.repairPending[i] = true
	c.k.After(f.model.RepairTime(), func() { c.repairDone(i) })
}

// repairDone fires node i's repair timer. A node still attached to a job
// parks the repair; the release path completes it.
func (c *Controller) repairDone(i int) {
	f := c.faults
	f.repairPending[i] = false
	if c.owner[i] != 0 {
		f.repairParked[i] = true
		return
	}
	c.finishRepair(i)
}

// finishRepair returns a repaired node to service: crashed hardware
// comes back idle and re-pools, a boot-unhealthy node is cleared for the
// adapt loop to provision again. Either way the node's strike record
// resets and — for a crash repair — the crash chain re-arms for the
// next life.
func (c *Controller) finishRepair(i int) {
	f := c.faults
	n := c.cluster.Nodes[i]
	f.repairParked[i] = false
	wasFailed := f.failed[i]
	f.failed[i] = false
	f.unhealthy[i] = false
	f.strikes[i] = 0
	f.retryAt[i] = 0
	if !wasFailed {
		// Boot-unhealthy repair: the node was never in service (it is
		// powered off); it stays offline until the adapt loop wants it.
		c.logNode(EvRepair, n, 0)
		c.armAdapt()
		return
	}
	f.failedN--
	c.cfg.Energy.FinishRepair(i)
	c.logNode(EvRepair, n, 0)
	c.pool.add(i)
	c.armSleep(n)
	c.kick()
	c.armAdapt()
	c.armCrash(i)
}

// requeueFailed kills and requeues a running job whose node crashed: the
// rigid recovery path. Work since the job's last protected point (its
// incarnation start, or its last committed checkpoint) is lost; the job
// returns to the pending queue and restarts — from scratch, or from the
// checkpoint its relaunch closure remembers. Kernel or process context.
func (c *Controller) requeueFailed(j *Job) {
	now := c.k.Now()
	lost := (now - j.ProtectedAt).Seconds()
	if lost < 0 {
		lost = 0
	}
	j.Requeues++
	j.Incarnation++
	j.LostWorkS += lost
	c.stats.Requeues++
	c.stats.LostWorkS += lost
	nodes := c.vacate(j)
	j.State = StatePending
	c.insertPending(j)
	ev := c.jobEvent(EvRequeue, j, nodes, fmt.Sprintf("lost=%.0fs requeues=%d", lost, j.Requeues))
	ev.Value = lost
	c.emit(ev)
	c.sample()
	c.armAdapt()
	c.kick()
}

// RequeueFailed is the runtime-facing rigid recovery: the job's failure
// handler decided it cannot shrink around the dead node (rigid job, or
// survivors below the application's minimum).
func (c *Controller) RequeueFailed(j *Job) {
	if j.State != StateRunning {
		panic(fmt.Sprintf("slurm: RequeueFailed on %v job %d", j.State, j.ID))
	}
	c.requeueFailed(j)
}

// CollectFailed splices every crashed node out of a running job's
// allocation — the controller half of shrink-to-survive — and returns
// the survivors. The dead nodes move to the fault books (parked repairs
// complete now); the job keeps running on what is left, and the caller
// (the runtime's recovery) respawns its process set over the survivors.
func (c *Controller) CollectFailed(j *Job) []*platform.Node {
	if j.State != StateRunning {
		panic(fmt.Sprintf("slurm: CollectFailed on %v job %d", j.State, j.ID))
	}
	f := c.faults
	now := c.k.Now()
	j.accumulateNodeSeconds(now)
	kept := j.alloc[:0]
	dead := 0
	for _, nd := range j.alloc {
		i := nd.Index
		if !f.failed[i] {
			kept = append(kept, nd)
			continue
		}
		dead++
		c.owner[i] = 0
		if f.repairParked[i] {
			c.finishRepair(i)
		}
	}
	if dead == 0 {
		return j.alloc
	}
	c.owned -= dead
	j.alloc = kept[:len(kept):len(kept)]
	j.invalidateSpeed()
	c.repositionEndOrder(j)
	c.pool.bump() // the job's anchor class may have changed
	j.ResizeCount++
	c.stats.Shrinks++
	c.log(EvShrink, j, nil, fmt.Sprintf("nodes=%d failed=%d", len(j.alloc), dead))
	c.sample()
	c.armAdapt()
	c.kick()
	return j.alloc
}

// NoteLostWork charges lost work to a job outside the requeue path (the
// malleable recovery loses the interrupted batch, not the run).
func (c *Controller) NoteLostWork(j *Job, lost float64) {
	if lost <= 0 || c.faults == nil {
		return
	}
	j.LostWorkS += lost
	c.stats.LostWorkS += lost
	c.emit(Event{T: c.k.Now(), Kind: EvLostWork, JobID: j.ID, Nodes: len(j.alloc), Value: lost})
}

// MarkProtected records a completed checkpoint: a later failure only
// loses work back to this point.
func (c *Controller) MarkProtected(j *Job) {
	j.ProtectedAt = c.k.Now()
}

// bootFailed handles an elastic provision boot that the injector failed:
// the node powers back off (it was never in service), strikes accumulate
// toward the unhealthy threshold, and a retry is gated behind a capped
// exponential backoff that the adapt loop honors.
func (c *Controller) bootFailed(n *platform.Node) {
	f := c.faults
	e := c.elastic
	i := n.Index
	f.provBootUntil[i] = 0
	c.bootUntil[i] = 0
	c.pool.remove(i) // it sat in the pool's booting half
	c.cfg.Energy.AbortBoot(i)
	e.offline[i] = true
	e.offlineN++
	f.strikes[i]++
	c.stats.BootFails++
	if f.strikes[i] >= maxStrikes {
		// Unhealthy: out of the provision rotation until repaired.
		f.unhealthy[i] = true
		f.repairPending[i] = true
		c.k.After(f.model.RepairTime(), func() { c.repairDone(i) })
	} else {
		f.retryAt[i] = c.k.Now() + f.model.BootRetry(f.strikes[i])
	}
	c.logNode(EvBootFail, n, 0)
	c.armAdapt()
}

// provisionable reports whether the fault machinery lets the adapt loop
// boot offline node i right now (healthy and past any retry backoff).
func (c *Controller) provisionable(i int) bool {
	if c.faults == nil {
		return true
	}
	return !c.faults.unhealthy[i] && c.faults.retryAt[i] <= c.k.Now()
}
