package slurm

// Action is a reconfiguration verdict, as returned to the runtime by the
// DMR API: "expand", "shrink", or "no action" (§V-A).
type Action int

// Reconfiguration actions.
const (
	NoAction Action = iota
	Expand
	Shrink
)

func (a Action) String() string {
	switch a {
	case NoAction:
		return "no-action"
	case Expand:
		return "expand"
	case Shrink:
		return "shrink"
	}
	return "?"
}

// ResizeRequest carries the DMR API input arguments of §V-A: the bounds
// the application is willing to run within, the resizing factor, and the
// optional preferred size.
type ResizeRequest struct {
	MinProcs  int
	MaxProcs  int
	Factor    int // resize steps multiply/divide the current size by this
	Preferred int // 0 means no preference
}

// Decision is the policy verdict.
type Decision struct {
	Action    Action
	NewNodes  int // target node count when Action != NoAction
	TargetJob int // pending job that motivated a shrink, if any
}

// QueueView is the controller-state window a selection policy sees.
type QueueView struct {
	ctl *Controller
	job *Job

	// relSuffix caches, per hard class, how many of the requesting
	// job's allocation-tail nodes from each position on are usable by
	// that class — Algorithm 1's wide optimization probes
	// ReleasedEligible once per chain step per pending target, and a
	// view lives for exactly one decision, so the O(alloc) count is
	// paid once per class instead of per probe.
	relSuffix map[string][]int
}

// FreeNodes returns the number of unallocated nodes.
func (v *QueueView) FreeNodes() int { return v.ctl.FreeNodes() }

// TotalNodes returns the cluster size.
func (v *QueueView) TotalNodes() int { return v.ctl.TotalNodes() }

// Job returns the requesting job.
func (v *QueueView) Job() *Job { return v.job }

// PendingEligible returns pending jobs whose dependencies are satisfied,
// in priority order, excluding resizer jobs (they belong to in-flight
// expansions, not to the workload). The pending queue is maintained in
// priority order, so this is a single filtered walk.
func (v *QueueView) PendingEligible() []*Job {
	out := make([]*Job, 0, len(v.ctl.pending))
	for _, j := range v.ctl.pending {
		if j.Resizer || !v.ctl.eligible(j) {
			continue
		}
		out = append(out, j)
	}
	return out
}

// BoostJob grants a pending job maximum priority.
func (v *QueueView) BoostJob(id int) { v.ctl.BoostJob(id) }

// ClassAware reports whether the controller runs class-aware placement;
// policies use it to decide whether to price expansions by class.
func (v *QueueView) ClassAware() bool { return v.ctl.cfg.ClassAware }

// FreeNodesFor returns how many free nodes pending job t may be
// allocated (its hard class constraint applied).
func (v *QueueView) FreeNodesFor(t *Job) int { return v.ctl.freeFor(t) }

// NeedNodes returns the width pending job t needs to start: ReqNodes
// for rigid jobs, the moldable floor (including any class-aware
// preferred-size floor) otherwise. Algorithm 1's wide optimization must
// agree with the scheduler about what "can run" means, or a shrink
// would release nodes for a start the scheduler then refuses.
func (v *QueueView) NeedNodes(t *Job) int { return v.ctl.needNodes(t) }

// ReleasedEligible returns how many of the nodes a shrink of the
// requesting job to n would release (its allocation tail) are usable by
// pending job t. A shrink that frees only wrong-class nodes cannot seat
// a class-constrained target, however many nodes it releases.
func (v *QueueView) ReleasedEligible(t *Job, n int) int {
	if n < 0 || n >= len(v.job.alloc) {
		return 0
	}
	if t.ReqClass == "" {
		return len(v.job.alloc) - n
	}
	s := v.relSuffix[t.ReqClass]
	if s == nil {
		s = make([]int, len(v.job.alloc)+1)
		for i := len(v.job.alloc) - 1; i >= 0; i-- {
			s[i] = s[i+1]
			if v.job.alloc[i].Class() == t.ReqClass {
				s[i]++
			}
		}
		if v.relSuffix == nil {
			v.relSuffix = make(map[string][]int, 2)
		}
		v.relSuffix[t.ReqClass] = s
	}
	return s[n]
}

// ExpandSpeedPreview prices an expansion by the machine classes
// involved: cur is the slowest P0 speed across the job's current
// allocation, grown the slowest across current plus the extra free
// nodes the allocator would hand it (pickNodes order, without
// committing), and fastest the fastest speed among those extras (0 when
// there are none). The coupled step loop runs at the slowest rank, so
// grown < cur means the whole job slows down to pay for the added
// width, while fastest > cur means premium nodes would be capped at the
// job's pace — full draw at fractional throughput.
func (v *QueueView) ExpandSpeedPreview(extra int) (cur, grown, fastest float64) {
	cur = 1.0
	for _, nd := range v.job.alloc {
		if s := nd.Speed(); s < cur {
			cur = s
		}
	}
	grown = cur
	if extra <= 0 {
		return cur, grown, 0
	}
	if pool := v.ctl.freeFor(v.job); extra > pool {
		extra = pool
	}
	for _, nd := range v.ctl.pickNodes(v.job, extra) {
		s := nd.Speed()
		if s < grown {
			grown = s
		}
		if s > fastest {
			fastest = s
		}
	}
	return cur, grown, fastest
}

// ExpandWakesNodes reports whether an expansion by extra nodes would be
// handed any sleeping node (pickNodes order, without committing).
// Expansion onto awake idle nodes is race-to-idle: they burn idle watts
// until their sleep timeout anyway, so spending them on throughput is
// cheap. Waking sleeping hardware for an opportunistic expansion is not.
func (v *QueueView) ExpandWakesNodes(extra int) bool {
	if pool := v.ctl.freeFor(v.job); extra > pool {
		extra = pool
	}
	for _, nd := range v.ctl.pickNodes(v.job, extra) {
		if v.ctl.cfg.Energy.WakePreview(nd.Index) > 0 {
			return true
		}
	}
	return false
}

// SelectPlugin decides reconfiguration requests. Implementations must be
// pure apart from BoostJob: the controller performs the granted action.
type SelectPlugin interface {
	Decide(v *QueueView, req ResizeRequest) Decision
}

// Reconfig asks the configured policy what job j should do, given the
// current queue state. It is the controller half of dmr_check_status.
func (c *Controller) Reconfig(j *Job, req ResizeRequest) Decision {
	if c.cfg.Policy == nil || j.State != StateRunning {
		return Decision{Action: NoAction}
	}
	d := c.cfg.Policy.Decide(&QueueView{ctl: c, job: j}, req)
	if d.Action == Shrink && d.TargetJob != 0 {
		c.BoostJob(d.TargetJob)
	}
	return d
}
