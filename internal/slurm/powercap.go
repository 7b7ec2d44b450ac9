package slurm

import (
	"fmt"
	"sort"

	"repro/internal/platform"
)

// Cluster power capping (the facility power budget of power-bounded
// scheduling). Every job start is admission-controlled against
// Config.PowerCapW: the controller projects the allocation's draw at P0
// and, when the cap would be breached, sheds power in preference order —
// first stepping already-running jobs' nodes to deeper P-states
// (youngest job first, so the oldest work keeps full speed), then
// admitting the new job itself below P0, and finally deferring the
// start. As completions, shrinks and sleep transitions return headroom,
// throttled jobs are stepped back toward P0 oldest-first.

// powerSlack is the float tolerance of cap comparisons.
const powerSlack = 1e-9

// capped reports whether power capping is active (Validate pairs a cap with an accountant).
func (c *Controller) capped() bool { return c.cfg.PowerCapW > 0 }

// allocDeltaW projects the rise in cluster draw from activating nodes at
// P-state ps, given their current (idle or sleeping) draw.
func (c *Controller) allocDeltaW(nodes []*platform.Node, ps int) float64 {
	d := 0.0
	for _, n := range nodes {
		d += n.Power.ActiveW(ps) - c.cfg.Energy.NodePowerW(n.Index)
	}
	return d
}

// deepestPState returns the deepest P-state index any of the nodes
// defines (SetPState clamps per node, so stepping to it is safe).
func deepestPState(nodes []*platform.Node) int {
	deepest := 0
	for _, n := range nodes {
		if d := len(n.Power.PStates) - 1; d > deepest {
			deepest = d
		}
	}
	return deepest
}

// throttleHeadroomW returns how many watts stepping job j's nodes to
// their deepest P-states would shed from the current draw.
func (c *Controller) throttleHeadroomW(j *Job) float64 {
	h := 0.0
	for _, n := range j.alloc {
		deepest := len(n.Power.PStates) - 1
		if d := c.cfg.Energy.NodePowerW(n.Index) - n.Power.ActiveW(deepest); d > 0 {
			h += d
		}
	}
	return h
}

// throttleOrder returns the governor's victims youngest-started first
// (ties broken by higher ID): the newest work slows down before older
// work does. Resizer jobs are skipped — their allocations are transient
// and graft onto a target job within seconds.
func (c *Controller) throttleOrder() []*Job {
	out := make([]*Job, 0, len(c.running))
	for _, j := range c.running {
		if j.Resizer || len(j.alloc) == 0 {
			continue
		}
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].StartTime != out[k].StartTime {
			return out[i].StartTime > out[k].StartTime
		}
		return out[i].ID > out[k].ID
	})
	return out
}

// settleThrottle closes an open throttle episode, accumulating it into
// ThrottledSec. Called when the job returns to P0 or terminates.
func (c *Controller) settleThrottle(j *Job) {
	if j.pstate > 0 {
		j.ThrottledSec += (c.k.Now() - j.throttledAt).Seconds()
		j.throttledAt = c.k.Now()
	}
}

// setJobPState moves every node of a running job to P-state ps and keeps
// the job's throttle accounting consistent. The accountant publishes a
// power sample per node transition, so the trace records each step.
func (c *Controller) setJobPState(j *Job, ps int) {
	if ps < 0 {
		ps = 0
	}
	old := j.pstate
	for _, n := range j.alloc {
		c.cfg.Energy.SetPState(n.Index, ps)
	}
	kind := EvThrottle
	switch {
	case ps > old:
		if old == 0 {
			j.throttledAt = c.k.Now()
		}
		c.stats.CapThrottles++
	case ps < old:
		if ps == 0 {
			c.settleThrottle(j)
		}
		c.stats.CapRestores++
		kind = EvRestore
	}
	j.pstate = ps
	if ps != old {
		// Logged at the new P-state: subscribers read it off the job.
		c.log(kind, j, j.alloc, fmt.Sprintf("p%d", ps))
	}
	// The new P-state re-prices the job's release estimate.
	c.repositionEndOrder(j)
}

// capFits reports whether starting job j on n free nodes at P0 stays
// under the cap without any throttling — the conservative check backfill
// uses (an opportunistic backfilled job must not slow higher-priority
// work).
func (c *Controller) capFits(j *Job, n int) bool {
	if !c.capped() {
		return true
	}
	delta := c.allocDeltaW(c.pickNodes(j, n), 0)
	return c.cfg.Energy.TotalPowerW()+delta <= c.cfg.PowerCapW+powerSlack
}

// capAdmit decides whether a main-pass start of n nodes fits under the
// power cap, throttling running jobs and/or choosing a below-P0 start
// state to make it fit. On success the chosen start P-state is stored in
// j.pstate (startJob hands it to the accountant) and any throttling has
// been applied; on failure nothing was changed and the job should wait.
func (c *Controller) capAdmit(j *Job, n int) bool {
	if !c.capped() {
		return true
	}
	e := c.cfg.Energy
	nodes := c.pickNodes(j, n)
	victims := c.throttleOrder()
	shedable := 0.0
	for _, v := range victims {
		shedable += c.throttleHeadroomW(v)
	}
	// Deepest-first would be pessimal for the new job: prefer the
	// shallowest start state that can be made to fit.
	for ps := 0; ps <= deepestPState(nodes); ps++ {
		over := e.TotalPowerW() + c.allocDeltaW(nodes, ps) - c.cfg.PowerCapW
		if over > shedable+powerSlack {
			continue // not even full throttling makes this state fit
		}
		for _, v := range victims {
			if over <= powerSlack {
				break
			}
			for over > powerSlack && c.throttleHeadroomW(v) > powerSlack {
				before := e.TotalPowerW()
				c.setJobPState(v, v.pstate+1)
				over -= before - e.TotalPowerW()
			}
		}
		if over > powerSlack {
			c.stats.CapDeferred++
			return false // headroom estimate was off; leave the job queued
		}
		j.pstate = ps
		if ps == 0 {
			c.stats.CapAdmitP0++
		} else {
			c.stats.CapAdmitDeep++
		}
		return true
	}
	c.stats.CapDeferred++
	return false
}

// jobSpeed returns the slowest execution speed across a running job's
// nodes at each node's effective P-state (the deeper of the job's
// governor state and the node's thermal floor) — below 1 for throttled
// jobs and for efficiency-class machines even at P0, mirroring
// Worker.SpeedFactor's stretch of the coupled step loop. Reservation
// pricing divides time-limit estimates by it. The cache is keyed on the
// governor state; thermal floor moves invalidate it through onThermal.
func (c *Controller) jobSpeed(j *Job) float64 {
	if j.speedFor == j.pstate+1 {
		return j.speedVal
	}
	speed := 1.0
	for _, n := range j.alloc {
		ps := j.pstate
		if f := c.cfg.Energy.ThermalFloor(n.Index); f > ps {
			ps = f
		}
		if s := n.Power.SpeedAt(ps); s < speed {
			speed = s
		}
	}
	j.speedFor, j.speedVal = j.pstate+1, speed
	return speed
}

// capEnforce sheds watts until the cluster is back under the cap,
// stepping running jobs' nodes deeper youngest-first — the reactive
// counterpart of capAdmit for draw that rises outside admission
// control, i.e. a thermal restore lifting a node's P-state floor while
// its job runs. Best effort: when every job already sits at its deepest
// state the excess stands (the same residual the admission path accepts
// for already-running work).
func (c *Controller) capEnforce() {
	if !c.capped() {
		return
	}
	e := c.cfg.Energy
	over := e.TotalPowerW() - c.cfg.PowerCapW
	if over <= powerSlack {
		return
	}
	for _, v := range c.throttleOrder() {
		for over > powerSlack && c.throttleHeadroomW(v) > powerSlack {
			before := e.TotalPowerW()
			c.setJobPState(v, v.pstate+1)
			over -= before - e.TotalPowerW()
		}
		if over <= powerSlack {
			return
		}
	}
}

// capRestore steps throttled jobs back toward P0 while the cap allows,
// oldest-started first so long-running work recovers speed before
// newcomers. It stops at the first job that cannot step up: restoring a
// younger job past a still-throttled older one would invert the
// governor's fairness order.
func (c *Controller) capRestore() {
	if !c.capped() {
		return
	}
	e := c.cfg.Energy
	victims := c.throttleOrder()
	for i := len(victims) - 1; i >= 0; i-- {
		j := victims[i]
		for j.pstate > 0 {
			cost := 0.0
			for _, n := range j.alloc {
				if d := n.Power.ActiveW(j.pstate-1) - e.NodePowerW(n.Index); d > 0 {
					cost += d
				}
			}
			if e.TotalPowerW()+cost > c.cfg.PowerCapW+powerSlack {
				return
			}
			c.setJobPState(j, j.pstate-1)
		}
	}
}
