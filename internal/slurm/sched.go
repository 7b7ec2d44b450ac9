package slurm

import (
	"sort"

	"repro/internal/platform"
	"repro/internal/sim"
)

// priority computes a job's scheduling priority. The paper enables
// Slurm's multifactor plugin with default weights, which behaves as
// age-ordered FIFO; the DMR policy additionally boosts the job that
// triggered a shrink to maximum priority (Algorithm 1, line 18).
//
// The seed implementation evaluated this float inside a sort comparator
// on every scheduling pass. The resulting order is provably the static
// key (queueRank desc, SubmitTime asc, ID asc): within one rank the
// priority is monotone in age, so descending priority is ascending
// submit time (float ties collapse to the same submit-time tie-break),
// and across ranks the 1e12 boost dominates any representable age
// (reaching 1e12 via the age term would take 10^15 simulated seconds,
// beyond Time's int64 range). The controller therefore keeps the pending
// queue sorted by that key incrementally — see insertPending — and never
// sorts per pass. priority is retained for reference and tests.
func (c *Controller) priority(j *Job) float64 {
	const boost = 1e12
	p := float64(queueRank(j)) * boost
	// Age factor: older submissions first.
	p += (c.k.Now() - j.SubmitTime).Seconds() * 1e-3
	return p
}

// queueRank is the boost tier of the static queue order: resizer jobs
// are submitted with maximum priority (§V-B1) and Algorithm 1's
// set_max_priority boosts shrink targets.
func queueRank(j *Job) int {
	r := 0
	if j.Boosted {
		r++
	}
	if j.Resizer {
		r++
	}
	return r
}

// queueBefore is the pending queue's total order: descending boost rank,
// then ascending submit time, then ascending ID.
func queueBefore(a, b *Job) bool {
	if ra, rb := queueRank(a), queueRank(b); ra != rb {
		return ra > rb
	}
	if a.SubmitTime != b.SubmitTime {
		return a.SubmitTime < b.SubmitTime
	}
	return a.ID < b.ID
}

// insertPending places j at its priority position in the pending queue.
func (c *Controller) insertPending(j *Job) {
	i := sort.Search(len(c.pending), func(i int) bool { return queueBefore(j, c.pending[i]) })
	c.pending = append(c.pending, nil)
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = j
}

// eligible reports whether a pending job's dependencies allow it to start.
func (c *Controller) eligible(j *Job) bool {
	switch j.Dependency.Type {
	case DepNone:
		return true
	case DepAfterAny:
		dep := c.jobs[j.Dependency.JobID]
		return dep == nil || dep.State == StateCompleted || dep.State == StateCancelled
	case DepExpand:
		dep := c.jobs[j.Dependency.JobID]
		return dep != nil && dep.State == StateRunning
	}
	return false
}

// startFloor is the smallest width a moldable start may take: MinNodes,
// lifted under class-aware placement to the job's preferred-size floor
// (PrefNodes, clamped to MaxNodes). Molding below the floor is a trap
// at fleet scale — a deep queue never leaves free nodes for Algorithm 1
// to regrow the job, so whatever sliver it started on is what it keeps.
func (c *Controller) startFloor(j *Job) int {
	f := j.MinNodes
	if c.cfg.ClassAware && j.PrefNodes > f {
		f = j.PrefNodes
		if j.MaxNodes > 0 && f > j.MaxNodes {
			f = j.MaxNodes
		}
	}
	return f
}

// needNodes is the width pending job j needs to start: ReqNodes for
// rigid jobs, the moldable floor otherwise.
func (c *Controller) needNodes(j *Job) int {
	if j.MinNodes < j.MaxNodes {
		return c.startFloor(j)
	}
	return j.ReqNodes
}

// startSize decides how many nodes to start j with. Rigid jobs use
// ReqNodes. Moldable jobs (the future-work extension) take as many nodes
// as available within [startFloor, MaxNodes].
func (c *Controller) startSize(j *Job, free int) (int, bool) {
	if j.MinNodes == j.MaxNodes || j.Resizer {
		if j.ReqNodes <= free {
			return j.ReqNodes, true
		}
		return 0, false
	}
	if c.startFloor(j) > free {
		return 0, false
	}
	n := j.MaxNodes
	if n > free {
		n = free
	}
	return n, true
}

// schedulePass runs the main priority scheduler followed by EASY
// backfill. Kernel context.
//
// Both loops range over the pending queue itself, which insertPending
// keeps in priority order: a pass runs inside a single kernel event, so
// the clock — and with it every job's priority — cannot change
// mid-pass. Inside a pass only startJob edits the queue (removePending
// drops the started job; the start hooks only signal or spawn, and
// event and sample subscribers only observe), and both loops stop
// ranging right after a start to rescan from the head (free counts
// changed). Every pass ends with a PASS probe.
func (c *Controller) schedulePass() {
	c.pass++ // a new pricing scope: wake remainders, rungs and floors may have moved
	defer func() {
		c.stats.Passes++
		c.emit(Event{T: c.k.Now(), Kind: EvPass})
	}()
	// Main pass: start jobs in priority order until the first one that
	// cannot run; that job becomes the backfill reservation holder. A
	// job can be blocked on nodes or — under a power cap — on watts:
	// capAdmit throttles running jobs and lowers the start P-state
	// before giving up.
	var blocked *Job
	for {
		started := false
		for _, j := range c.pending {
			if j.State != StatePending || !c.eligible(j) {
				continue
			}
			// A class-constrained job only competes for its class's free
			// nodes; unconstrained jobs see the whole pool.
			n, ok := c.startSize(j, c.freeFor(j))
			if !ok {
				blocked = j
				break
			}
			n = c.classClampSize(j, n)
			if !c.capAdmit(j, n) {
				// A moldable job can trade nodes for watts: shrink the
				// start size toward its floor until the cap admits it.
				admitted := false
				for m := n - 1; m >= c.startFloor(j) && j.MinNodes < j.MaxNodes; m-- {
					if c.capAdmit(j, m) {
						n, admitted = m, true
						break
					}
				}
				if !admitted {
					blocked = j
					break
				}
			}
			c.startJob(j, n)
			c.stats.MainStarts++
			started = true
			break // rescan from the top: free counts changed
		}
		if !started {
			break
		}
	}
	if blocked == nil {
		return
	}

	// EASY backfill: compute the shadow time at which the blocked job
	// could start if running jobs end at their time-limit estimates, and
	// the extra nodes left over at that moment. A lower-priority job may
	// start now if it fits and either finishes before the shadow time or
	// leaves the reservation intact. The reservation is held in the
	// blocked job's *eligible* nodes: a candidate only erodes it by the
	// blocked-class nodes it would actually take, so other-class nodes
	// backfill freely around a class-constrained holder.
	shadow, extra := c.reservation(blocked)
	if c.elastic != nil {
		// Wake-ahead: every free eligible node is part of the blocked
		// job's reservation (avail < need, or it would have started), so
		// pre-boot the sleeping ones to be up exactly at the shadow time.
		c.wakeAhead(blocked, shadow)
	}
	eligTake := func(j *Job, n int) int {
		if blocked.ReqClass == "" {
			return n
		}
		return c.prefixTake(j, n, blocked.ReqClass)
	}
	for {
		started := false
		for _, j := range c.pending {
			if j == blocked || j.State != StatePending || !c.eligible(j) {
				continue
			}
			c.stats.BackfillScanned++
			need := c.needNodes(j)
			if need > c.freeFor(j) {
				continue
			}
			// A job handed sleeping nodes launches only after the worst
			// wake latency, and one handed slow-class nodes runs past
			// its reference-speed estimate: both must be priced in for
			// the start to provably end before the shadow time.
			fitsBefore := c.backfillEnd(j, need) <= shadow
			if !fitsBefore && eligTake(j, need) > extra {
				continue
			}
			n := need
			if j.MinNodes < j.MaxNodes {
				// Moldable backfill: cap at what preserves the reservation
				// unless it finishes before the shadow time.
				n, _ = c.startSize(j, c.freeFor(j))
				n = c.classClampSize(j, n)
				if fitsBefore && n > need {
					// A wider allocation reaches deeper into sleeping or
					// slower nodes; re-check with what it would receive.
					fitsBefore = c.backfillEnd(j, n) <= shadow
				}
				for !fitsBefore && n >= need && eligTake(j, n) > extra {
					n--
				}
				if n < need {
					continue
				}
			}
			// Backfill never throttles higher-priority running work to
			// squeeze an opportunistic job under the power cap, but a
			// moldable candidate may shrink toward its floor to fit the
			// watt budget (fewer nodes only shorten wake/speed bounds,
			// so fitsBefore and the extra cap still hold).
			for n >= need && !c.capFits(j, n) {
				n--
			}
			if n < need {
				continue
			}
			c.startJob(j, n)
			c.stats.BackfillStarts++
			if !fitsBefore {
				for _, nd := range j.alloc {
					if blocked.ClassEligible(nd) {
						extra--
					}
				}
			}
			started = true
			break
		}
		if !started {
			return
		}
	}
}

// classClampSize prices a moldable start width by the slowest class it
// would receive. Under ClassAware, taking more nodes is only worth it
// while the added parallelism outweighs dragging the coupled step loop
// down to a slower class — the job runs at the pace of its slowest
// node. Returns the width in [startFloor, n] with the highest effective
// throughput (width × slowest-class P0 speed), ties to the widest. The
// floor honors the job's preferred size (PrefNodes): FS-style apps that
// declare no Table I preference would otherwise be molded down to
// MinProcs=1 and stay there forever under a deep queue.
func (c *Controller) classClampSize(j *Job, n int) int {
	floor := c.startFloor(j)
	if !c.cfg.ClassAware || j.MinNodes >= j.MaxNodes || n <= floor {
		return n
	}
	// Every width m ≤ n is priced on the n-variant's order, as if the
	// job took the first m nodes of the n-node pick.
	o := c.pickOrderFor(j, n)
	c.extendPrices(o, n)
	best, bestEff := n, 0.0
	for m := max(floor, 1); m <= n; m++ {
		if eff := float64(m) * o.speed[m-1]; eff >= bestEff {
			best, bestEff = m, eff
		}
	}
	return best
}

// nodeStartSpeed is the speed a fresh allocation of nd would actually
// run at: the class P0 speed, lowered by any thermal P-state floor the
// node still carries from its previous occupant (the envelope belongs
// to the machine, and a hot node allocates at its floor). Identical to
// nd.Speed() without a thermal envelope.
func (c *Controller) nodeStartSpeed(nd *platform.Node) float64 {
	return nd.Power.SpeedAt(c.cfg.Energy.ThermalFloor(nd.Index))
}

// wakePreview bounds the launch delay an allocation of free node nd
// would pay right now: the remainder of a transition already in flight
// (wake-ahead, a provision, or a release inside the wake window), or the
// latency of the rung/off state the node actually occupies. Pricing the
// occupied rung instead of a decision-time worst case matters once
// wake-ahead exists: a pre-booted node's full rung latency would be
// double-counted — it is already being paid, concurrently, by the clock.
func (c *Controller) wakePreview(nd *platform.Node) sim.Time {
	if bu := c.bootUntil[nd.Index]; bu > c.k.Now() {
		return bu - c.k.Now()
	}
	return c.cfg.Energy.WakePreview(nd.Index)
}

// backfillEnd bounds when a backfill start of j on n free nodes would
// end: the launch waits for the worst-case wake latency of the nodes it
// would receive (pickNodes order), and the time limit stretches by the
// slowest effective speed among them (machine class and any persistent
// thermal floor) — the coupled step loop really runs that much slower
// there. Both are one slot of the pick order's prefix aggregates.
func (c *Controller) backfillEnd(j *Job, n int) sim.Time {
	wake, speed := c.prefixPrice(j, n)
	limit := j.TimeLimit
	if speed > 0 && speed < 1 {
		limit = sim.Time(float64(limit) / speed)
	}
	return c.k.Now() + wake + limit
}

// scope drops o's prefix aggregates when they were priced in an
// earlier pass.
func (o *pickOrder) scope(pass uint64) {
	if o.pass != pass {
		o.pass = pass
		o.wake, o.speed, o.take = o.wake[:0], o.speed[:0], o.take[:0]
	}
}

// extendPrices extends o's wake and speed aggregates over its first n
// nodes (already merged).
func (c *Controller) extendPrices(o *pickOrder, n int) {
	o.scope(c.pass)
	wake, speed := sim.Time(0), 1.0
	if m := len(o.wake); m > 0 {
		wake, speed = o.wake[m-1], o.speed[m-1]
	}
	for len(o.wake) < n {
		nd := o.nodes[len(o.wake)]
		if w := c.wakePreview(nd); w > wake {
			wake = w
		}
		if s := c.nodeStartSpeed(nd); s < speed {
			speed = s
		}
		o.wake = append(o.wake, wake)
		o.speed = append(o.speed, speed)
	}
}

// prefixPrice returns the worst launch delay and the slowest start speed
// among the n nodes an allocation for j would receive (0 and 1 for no
// nodes).
func (c *Controller) prefixPrice(j *Job, n int) (sim.Time, float64) {
	o := c.pickOrderFor(j, n)
	if n == 0 {
		return 0, 1
	}
	c.extendPrices(o, n)
	return o.wake[n-1], o.speed[n-1]
}

// prefixTake counts the nodes of class among the n nodes an allocation
// for j would receive.
func (c *Controller) prefixTake(j *Job, n int, class string) int {
	o := c.pickOrderFor(j, n)
	if n == 0 {
		return 0
	}
	o.scope(c.pass)
	if o.takeClass != class {
		o.takeClass, o.take = class, o.take[:0]
	}
	take := 0
	if m := len(o.take); m > 0 {
		take = o.take[m-1]
	}
	for len(o.take) < n {
		if o.nodes[len(o.take)].Class() == class {
			take++
		}
		o.take = append(o.take, take)
	}
	return o.take[n-1]
}

// jobRelease is one running job's priced release: the time its nodes
// come back, assuming it ends at its speed-stretched time limit.
type jobRelease struct {
	t sim.Time
	j *Job
}

// jobEndEstimate prices when a running job releases its allocation: its
// time limit, stretched when the job's coupled step loop runs below P0
// speed (throttled or efficiency-class nodes).
func (c *Controller) jobEndEstimate(j *Job) sim.Time {
	end := j.StartTime + j.TimeLimit
	if s := c.jobSpeed(j); s > 0 && s < 1 {
		end = j.StartTime + sim.Time(float64(j.TimeLimit)/s)
	}
	return end
}

// endBefore is endOrder's total order.
func endBefore(a, b jobRelease) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.j.ID < b.j.ID
}

// insertEndOrder adds a freshly started job to the release order.
func (c *Controller) insertEndOrder(j *Job) {
	e := jobRelease{t: c.jobEndEstimate(j), j: j}
	i := sort.Search(len(c.endOrder), func(i int) bool { return endBefore(e, c.endOrder[i]) })
	c.endOrder = append(c.endOrder, jobRelease{})
	copy(c.endOrder[i+1:], c.endOrder[i:])
	c.endOrder[i] = e
}

// removeEndOrder drops a job that stopped running.
func (c *Controller) removeEndOrder(j *Job) {
	for i, e := range c.endOrder {
		if e.j == j {
			c.endOrder = append(c.endOrder[:i], c.endOrder[i+1:]...)
			return
		}
	}
}

// repositionEndOrder re-prices a job whose allocation or P-state moved.
func (c *Controller) repositionEndOrder(j *Job) {
	if _, ok := c.running[j.ID]; !ok {
		return
	}
	c.removeEndOrder(j)
	c.insertEndOrder(j)
}

// reservation computes (shadowTime, extraNodes) for EASY backfill: the
// earliest time the blocked job can accumulate enough *eligible* nodes
// assuming running jobs end at StartTime+TimeLimit, and how many
// eligible nodes beyond the blocked job's requirement will be free at
// that time. For a class-constrained blocked job only releases of its
// class count — a slow-class job ending early cannot seat a Xeon-pinned
// holder, so pricing its release would place the shadow time too early.
func (c *Controller) reservation(blocked *Job) (sim.Time, int) {
	avail := c.freeFor(blocked)
	need := c.needNodes(blocked)
	if avail >= need {
		return c.k.Now(), avail - need
	}
	// Walk the running jobs in priced-release order (endOrder is kept
	// sorted incrementally). A job that overran its estimate is priced
	// at an imminent end; overruns sort first, so the walk stays in
	// ascending release time.
	unfiltered := blocked.ReqClass == "" && (c.faults == nil || c.faults.failedN == 0)
	for _, r := range c.endOrder {
		// FAILED nodes leave service when the job releases them (a
		// crashed member of a running allocation goes to repair, not the
		// pool): counting them would place the shadow time too early and
		// overstate the extra nodes.
		releases := len(r.j.alloc)
		if !unfiltered {
			releases = 0
			for _, nd := range r.j.alloc {
				if !c.nodeFailed(nd.Index) && blocked.ClassEligible(nd) {
					releases++
				}
			}
		}
		if releases == 0 {
			continue
		}
		avail += releases
		if avail >= need {
			t := r.t
			if t < c.k.Now() {
				t = c.k.Now()
			}
			return t, avail - need
		}
	}
	// Even with everything released the job cannot run (oversized);
	// treat the reservation as infinitely far away.
	return sim.Time(1<<62 - 1), avail
}
