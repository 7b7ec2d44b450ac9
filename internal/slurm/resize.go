package slurm

import (
	"fmt"
	"sort"

	"repro/internal/platform"
)

// The four primitives below reproduce the Slurm API sequence of §III.
//
// Expand of job A by N nodes:
//  1. SubmitResizer: submit job B requesting N nodes with an expand
//     dependency on A and maximum priority.
//  2. (scheduler starts B when N nodes are free)
//  3. DetachNodes(B): update B to 0 nodes; the allocation is parked.
//  4. Cancel(B).
//  5. GrowJob(A, parked nodes): update A to NA+NB.
//
// Shrink of job A to n nodes:
//  1. ShrinkJob(A, n): update A's node count; the tail of the allocation
//     is released (the runtime has already drained those nodes).

// SubmitResizer submits the resizer job used by the expand dance. onStart
// fires in kernel context when the scheduler allocates it.
func (c *Controller) SubmitResizer(target *Job, n int, onStart func(rj *Job)) *Job {
	rj := &Job{
		Name:       fmt.Sprintf("%s-resizer", target.Name),
		ReqNodes:   n,
		MinNodes:   n,
		MaxNodes:   n,
		TimeLimit:  target.TimeLimit,
		Resizer:    true,
		Dependency: Dependency{Type: DepExpand, JobID: target.ID},
		// The resizer's allocation is destined for the target: it must
		// satisfy the target's hard class constraint and shares its
		// affinity, so an expansion grows onto the nodes the target
		// would have chosen for itself.
		ReqClass:  target.ReqClass,
		PrefClass: target.PrefClass,
	}
	rj.onResizerStart = onStart
	return c.Submit(rj)
}

// DetachNodes removes and parks a running job's entire allocation (the
// "update job B, setting its number of nodes to 0" step). The nodes are
// held out of the free pool until claimed by GrowJob.
func (c *Controller) DetachNodes(j *Job) []*platform.Node {
	if j.State != StateRunning {
		panic(fmt.Sprintf("slurm: DetachNodes on %v job %d", j.State, j.ID))
	}
	j.accumulateNodeSeconds(c.k.Now())
	nodes := j.alloc
	j.alloc = nil
	j.invalidateSpeed()
	c.repositionEndOrder(j)
	c.held = append(c.held, nodes...)
	for _, n := range nodes {
		c.owner[n.Index] = heldOwner
	}
	c.pool.bump() // the job's anchor class changed; drop cached picks
	// Parked nodes keep drawing active power under their existing
	// attribution — for an expand-dance resizer that is already the
	// dance target (set at allocation); GrowJob re-asserts it on graft.
	// The job keeps "running" with zero nodes until cancelled, exactly
	// like the transient state in the paper's dance.
	c.log(EvDetach, j, nodes, fmt.Sprintf("parked=%d", len(nodes)))
	return nodes
}

// CancelResizer finishes the dance's step 3 for a node-less running
// resizer, or removes it from the queue if it never started.
func (c *Controller) CancelResizer(rj *Job) {
	switch rj.State {
	case StatePending:
		if err := c.Cancel(rj); err != nil {
			panic(err)
		}
	case StateRunning:
		if len(rj.alloc) != 0 {
			panic(fmt.Sprintf("slurm: cancelling resizer %d with %d nodes still attached", rj.ID, len(rj.alloc)))
		}
		delete(c.running, rj.ID)
		c.removeEndOrder(rj)
		rj.State = StateCancelled
		rj.EndTime = c.k.Now()
		c.log(EvCancel, rj, nil, "")
		c.kick()
	default:
		panic(fmt.Sprintf("slurm: CancelResizer on %v job %d", rj.State, rj.ID))
	}
}

// GrowJob attaches parked nodes to a running job (the "update job A and
// set its number of nodes to NA+NB" step).
func (c *Controller) GrowJob(j *Job, nodes []*platform.Node) {
	if j.State != StateRunning {
		panic(fmt.Sprintf("slurm: GrowJob on %v job %d", j.State, j.ID))
	}
	taken := 0
	for _, n := range nodes {
		for i, h := range c.held {
			if h == n {
				c.held = append(c.held[:i], c.held[i+1:]...)
				taken++
				break
			}
		}
	}
	if taken != len(nodes) {
		panic("slurm: GrowJob with nodes that were not parked")
	}
	j.accumulateNodeSeconds(c.k.Now())
	j.alloc = append(j.alloc, nodes...)
	j.invalidateSpeed()
	c.repositionEndOrder(j)
	for _, n := range nodes {
		c.owner[n.Index] = j.ID
	}
	c.pool.bump() // the grown allocation changes the job's anchor class
	j.noteClassSpeeds(nodes)
	if c.cfg.ClassAware {
		// Keep the allocation fast-first (stable by index) so a later
		// tail shrink releases the slowest nodes first. Safe here: the
		// runtime respawns its process set over the new allocation
		// right after the grow, so no live rank mapping depends on the
		// old order.
		sort.SliceStable(j.alloc, func(a, b int) bool {
			return j.alloc[a].Speed() > j.alloc[b].Speed()
		})
	}
	c.powerReattribute(nodes, j.ID)
	if c.capped() {
		// Under a power cap the grafted nodes may run at a different
		// P-state than the job (the resizer can be admitted below P0):
		// align the whole job on the deepest state involved — stepping
		// down never breaches the cap; capRestore lifts it later. In
		// the common all-at-P0 case nothing is touched, so no redundant
		// power samples land in the trace.
		ps := j.pstate
		mismatch := false
		for _, n := range nodes {
			p := c.cfg.Energy.PStateOf(n.Index)
			if p != j.pstate {
				mismatch = true
			}
			if p > ps {
				ps = p
			}
		}
		if mismatch {
			c.setJobPState(j, ps)
			// The alignment may have been forced by a transiently tight
			// budget (the resizer's deep admission): lift what the cap
			// allows right away rather than waiting for the next
			// completion/shrink/sleep event — there may never be one.
			c.capRestore()
		}
	}
	j.ResizeCount++
	c.log(EvGrow, j, nodes, fmt.Sprintf("nodes=%d", len(j.alloc)))
	c.sample()
}

// ShrinkJob reduces a running job to n nodes, releasing the allocation
// tail, and returns the released nodes. The caller guarantees the
// application has vacated them.
func (c *Controller) ShrinkJob(j *Job, n int) []*platform.Node {
	if j.State != StateRunning {
		panic(fmt.Sprintf("slurm: ShrinkJob on %v job %d", j.State, j.ID))
	}
	if n < 1 || n >= len(j.alloc) {
		panic(fmt.Sprintf("slurm: ShrinkJob %d -> %d nodes", len(j.alloc), n))
	}
	j.accumulateNodeSeconds(c.k.Now())
	released := j.alloc[n:]
	j.alloc = j.alloc[:n:n]
	j.invalidateSpeed()
	c.repositionEndOrder(j)
	c.releaseNodes(released)
	j.ResizeCount++
	c.log(EvShrink, j, released, fmt.Sprintf("nodes=%d released=%d", n, len(released)))
	c.sample()
	c.kick()
	return released
}

// BoostJob grants a pending job maximum priority (Algorithm 1 line 18).
// The boost changes the job's queue rank, so it is re-inserted at its
// new position to keep the pending queue sorted.
func (c *Controller) BoostJob(id int) {
	j := c.jobs[id]
	if j == nil || j.State != StatePending {
		return
	}
	if !j.Boosted {
		c.removePending(j)
		j.Boosted = true
		c.insertPending(j)
		c.log(EvBoost, j, nil, "")
	}
}
