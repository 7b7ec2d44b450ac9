package slurm

import (
	"fmt"

	"repro/internal/platform"
)

// Node administration: drain and resume, the minimal state machine a
// production workload manager needs for maintenance and failure
// handling. Draining an allocated node takes effect lazily when its job
// releases it (Slurm's DRAINING→DRAINED transition); a drained node is
// never handed to new allocations until resumed.

// DrainNode removes a node from scheduling. Idempotent.
func (c *Controller) DrainNode(index int) error {
	if index < 0 || index >= len(c.cluster.Nodes) {
		return fmt.Errorf("slurm: drain: no node %d", index)
	}
	n := c.cluster.Nodes[index]
	if c.drained[index] {
		return nil
	}
	c.drained[index] = true
	c.drainedN++
	// If currently free, pull it out of the pool immediately.
	pooled := c.pool.contains(index)
	if pooled {
		c.pool.remove(index)
		c.drainedUnheld++
	}
	c.logAdmin(EvDrain, index, pooled)
	// A drained node stays powered for maintenance: cancel any armed
	// sleep timer and boot it if it already dozed off. The boot is a real
	// transition — the node is only usable again bootUntil later, so a
	// resume inside the window hands the pool a booting node, not an
	// awake one (allocating it twice under its wake latency was the
	// mid-boot state hole).
	if !c.isOffline(index) && !c.nodeFailed(index) {
		c.sleepGen[index]++
		if w := c.cfg.Energy.StartBoot(index); w > 0 {
			c.bootUntil[index] = c.k.Now() + w
			c.logNode(EvWake, n, 0)
			c.scheduleBootDone(n)
		}
	}
	return nil
}

// ResumeNode returns a drained node to service. Idempotent.
func (c *Controller) ResumeNode(index int) error {
	if index < 0 || index >= len(c.cluster.Nodes) {
		return fmt.Errorf("slurm: resume: no node %d", index)
	}
	n := c.cluster.Nodes[index]
	if !c.drained[index] {
		return nil
	}
	c.drained[index] = false
	c.drainedN--
	// Only re-add to the free pool if no job holds it (it may still be
	// allocated if it was drained while busy and the job is running). A
	// decommissioned node stays offline: the elastic adapt loop, not the
	// drain machinery, owns its return to the fleet — and a FAILED node
	// stays on the fault books (it was never in drainedUnheld) until its
	// repair re-pools it.
	pooled := !c.nodeHeld(n) && !c.isOffline(index) && !c.nodeFailed(index)
	c.logAdmin(EvResume, index, pooled)
	if pooled {
		c.drainedUnheld--
		c.releaseNodes(c.cluster.Nodes[index : index+1])
		c.kick()
	}
	return nil
}

// logAdmin emits a DRAIN or RESUME event for node index; Nodes is 0
// when the node stays outside the free pool.
func (c *Controller) logAdmin(kind EventKind, index int, pooled bool) {
	ev := Event{
		T:     c.k.Now(),
		Kind:  kind,
		JobID: c.ownerJobID(index),
		Info:  c.cluster.Nodes[index].Name,
		Set:   c.cluster.Nodes[index : index+1],
	}
	if pooled {
		ev.Nodes = 1
	}
	c.emit(ev)
}

// DrainedNodes reports how many nodes are out of service.
func (c *Controller) DrainedNodes() int { return c.drainedN }

// heldOwner marks a node parked in the held pool in the owner index.
const heldOwner = -1

// nodeHeld reports whether any job or the held pool owns n. O(1): the
// owner index is updated on every allocate, detach, grow and release.
func (c *Controller) nodeHeld(n *platform.Node) bool {
	return c.owner[n.Index] != 0
}

// isDrained reports whether a node is out of service. O(1): the flag
// slice replaces the seed's map of drained nodes, so the release path
// (releaseNodes) and the reservation's per-allocation filter pay an
// index load per node instead of a hash lookup.
func (c *Controller) isDrained(n *platform.Node) bool { return c.drained[n.Index] }
