package slurm

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Config tunes the controller.
type Config struct {
	// SchedDelay is the reaction latency between a state change and the
	// scheduling pass it triggers (slurmctld event handling latency).
	SchedDelay sim.Time
	// Policy decides reconfiguration requests (nil disables DMR).
	Policy SelectPlugin
	// RPCService is the controller-side service time of one
	// reconfiguration decision. Decisions are served one at a time, so
	// many jobs checking at once queue here — the "burst of
	// communications" the checking inhibitor exists to avoid (§VIII-E).
	RPCService sim.Time
	// Energy receives every node power-state transition and attributes
	// per-job energy (the EnergyJ accounting column). Nil makes
	// NewController meter with an accountant of its own; a caller that
	// subscribes to the accountant before construction passes it here.
	Energy *energy.Accountant
	// SleepLadder, when non-empty, puts idle nodes to sleep: a node idle
	// for rung.AfterIdle sinks to rung.State, stepping deeper the longer
	// it stays idle (a one-rung ladder is the single idle-timeout drop;
	// empty keeps idle nodes powered on). Rungs must have strictly
	// increasing AfterIdle and State (deeper rungs draw less but wake
	// slower — allocating a laddered node pays the wake latency of the
	// rung it actually occupies, so energy-aware backfill's wake pricing
	// and the allocator's awake-first preference face a real gradient).
	SleepLadder []SleepRung
	// PowerCapW bounds the instantaneous cluster draw (facility power
	// budget). Before each start the controller projects the new
	// allocation's draw and, when it would breach the cap, first
	// throttles running jobs' nodes to deeper P-states (youngest job
	// first), then starts the new job itself below P0, and finally
	// defers the start — the cap-blocked job becomes the backfill
	// reservation holder. 0 disables capping.
	PowerCapW float64
	// ClassAware makes placement machine-class aware on heterogeneous
	// fleets: allocations prefer faster classes, moldable starts are
	// priced by the slowest class a candidate width would receive, job
	// allocations keep a fast-first order so tail shrinks release the
	// slowest nodes, and the selectdmr class policy prices expansions
	// by the class of the nodes they would add. Hard ReqClass
	// constraints and soft PrefClass affinities on jobs are honored
	// regardless of this switch.
	ClassAware bool
	// Elastic, when non-nil, attaches the elastic capacity controller:
	// a periodic adapt loop provisions and decommissions nodes against
	// the configured Min/Max envelope, powered-off nodes pay a full boot
	// on provision, and EASY reservations pre-boot the blocked job's
	// sleeping nodes (wake-ahead).
	Elastic *ElasticConfig
	// Faults, when non-nil, attaches the fault-injection model: per-node
	// crash chains drawn from the model's MTBF distribution, repairs
	// after its MTTR, and (under Elastic) provision boot failures with
	// capped-backoff retries. Crashed nodes enter the FAILED state —
	// outside the free pool and every allocation — until repaired, and
	// the controller runs the recovery paths (requeue or the runtime's
	// shrink-to-survive).
	Faults FaultModel
	// Migration, when non-nil, attaches the live-migration decision pass
	// (migrate.go): a periodic pick over the running jobs relocates one
	// job at a time onto a different machine class through a modeled
	// checkpoint/restart cycle. Requires a Policy implementing
	// MigrationPicker.
	Migration *MigrationConfig
}

// DefaultConfig mirrors the paper's Slurm setup: multifactor priorities
// at defaults (every scheduling pass runs EASY backfill, as the paper's
// Slurm did).
func DefaultConfig() Config {
	return Config{
		SchedDelay: 100 * sim.Millisecond,
		RPCService: 100 * sim.Millisecond,
	}
}

// Controller is the workload manager daemon (slurmctld analog).
type Controller struct {
	cluster *platform.Cluster
	k       *sim.Kernel
	cfg     Config

	pool *freePool        // indexed free pool (per-class awake/asleep bitmaps)
	held []*platform.Node // detached during an expand dance

	// owner indexes node occupancy by node index: 0 = unowned, heldOwner
	// = parked in the held pool, otherwise the owning job's ID. owned
	// counts the nonzero entries: it moves only where an entry goes to
	// or from 0 (allocateNodes, releaseNodes, CollectFailed).
	owner []int
	owned int

	jobs    map[int]*Job
	pending []*Job
	running map[int]*Job
	nextID  int

	completed int
	kicked    bool
	rpcSlot   *sim.Resource // serializes reconfiguration decisions
	sleepGen  []int         // per-node timer generation; allocation invalidates armed sleeps

	// bootUntil records, per node, when its current wake/boot transition
	// completes (zero or past: not transitioning). It is the state the
	// free pool's booting bitmaps key off: a node released inside its
	// wake window re-enters the pool as booting, so a second allocation
	// pays exactly the remaining transition — never the full rung again,
	// and never nothing.
	bootUntil []sim.Time

	// elastic is the capacity controller state (nil: fixed fleet).
	elastic *elasticState

	// faults is the fault-injection state (nil: nothing ever fails).
	faults *faultState

	// migration is the live-migration state (nil: jobs never move).
	migration *migrationState

	// pick caches one affinity ordering per placement variant at the
	// current pool version: classClampSize, backfillEnd, capAdmit/capFits,
	// the QueueView previews and startJob all read prefixes of it. pass
	// counts scheduling passes; the orderings' prefix aggregates are
	// priced for one pass.
	pick pickCache
	pass uint64

	// endOrder keeps the running jobs sorted by priced release time
	// (StartTime plus the speed-stretched time limit, ties by ID) — the
	// order the EASY reservation consumes. Maintained incrementally on
	// start, completion, resize and P-state moves, it turns the per-pass
	// collect-and-sort over every running job into an ordered walk.
	endOrder []jobRelease

	stats       Stats
	eventsTotal uint64
	eventSubs   []func(Event)
	sampleSubs  []SampleFunc

	// built holds the events NewController itself emitted (the elastic
	// fleet's initial power-offs), replayed to every subscriber.
	built []Event
}

// heldOwner marks a node parked in the held pool in the owner index.
const heldOwner = -1

// SampleFunc observes one allocation snapshot.
type SampleFunc func(t sim.Time, allocatedNodes, runningJobs, completedJobs, pendingJobs int)

// SleepRung is one step of the idle S-state ladder: a node that has
// been idle for AfterIdle drops to S-state State.
type SleepRung struct {
	AfterIdle sim.Time
	State     int
}

// DefaultSleepLadder is the stock two-rung ladder matched to the
// default profiles' two S-states: the shallow suspend after two idle
// minutes (the energy experiments' idle timeout), the deep state after
// ten.
func DefaultSleepLadder() []SleepRung {
	return []SleepRung{
		{AfterIdle: 120 * sim.Second, State: 0},
		{AfterIdle: 600 * sim.Second, State: 1},
	}
}

// validateLadder checks a configured S-state ladder: rungs must exist,
// start after a positive idle time, and step strictly deeper at
// strictly later times — a rung that wakes earlier or shallower than
// its predecessor could never be entered (the accountant only deepens
// sleeping nodes).
func validateLadder(ladder []SleepRung) error {
	for i, r := range ladder {
		if r.AfterIdle <= 0 {
			return fmt.Errorf("slurm: sleep ladder rung %d fires after %v; idle times must be positive", i, r.AfterIdle)
		}
		if r.State < 0 {
			return fmt.Errorf("slurm: sleep ladder rung %d targets S-state %d", i, r.State)
		}
		if i > 0 {
			if r.AfterIdle <= ladder[i-1].AfterIdle {
				return fmt.Errorf("slurm: sleep ladder rung %d fires at %v, not after rung %d's %v", i, r.AfterIdle, i-1, ladder[i-1].AfterIdle)
			}
			if r.State <= ladder[i-1].State {
				return fmt.Errorf("slurm: sleep ladder rung %d targets S%d, not deeper than rung %d's S%d", i, r.State, i-1, ladder[i-1].State)
			}
		}
	}
	return nil
}

// Validate reports the first rule cfg breaks on a cluster of the given
// node count. NewController panics with the same error, so callers
// building from user input call Validate first.
func (cfg Config) Validate(nodes int) error {
	if cfg.PowerCapW < 0 {
		return fmt.Errorf("slurm: PowerCapW %g W is negative (0 disables capping)", cfg.PowerCapW)
	}
	if err := validateLadder(cfg.SleepLadder); err != nil {
		return err
	}
	if el := cfg.Elastic; el != nil {
		if el.Min < 0 || el.Max < 0 {
			return fmt.Errorf("slurm: Elastic envelope %d:%d has a negative bound", el.Min, el.Max)
		}
		// initElastic clamps Min to the cluster and reads Max 0 (or
		// beyond the cluster) as the whole cluster, so the envelope is
		// inverted only when a Max inside the cluster undercuts Min.
		if el.Max > 0 && el.Max < el.Min && el.Max < nodes {
			return fmt.Errorf("slurm: Elastic envelope %d:%d is inverted", el.Min, el.Max)
		}
	}
	if cfg.Migration != nil {
		if _, ok := cfg.Policy.(MigrationPicker); !ok {
			return errors.New("slurm: Migration requires a Policy implementing MigrationPicker")
		}
	}
	return nil
}

// NewController builds a controller over the cluster's nodes. It panics
// if cfg does not validate.
func NewController(c *platform.Cluster, cfg Config) *Controller {
	if err := cfg.Validate(len(c.Nodes)); err != nil {
		panic(err)
	}
	if cfg.Energy == nil {
		cfg.Energy = energy.New(c.K, c.PowerProfiles())
	}
	ctl := &Controller{
		cluster:   c,
		k:         c.K,
		cfg:       cfg,
		pool:      newFreePool(c.Nodes),
		owner:     make([]int, len(c.Nodes)),
		jobs:      make(map[int]*Job),
		running:   make(map[int]*Job),
		rpcSlot:   sim.NewResource(c.K, 1),
		sleepGen:  make([]int, len(c.Nodes)),
		bootUntil: make([]sim.Time, len(c.Nodes)),
	}
	cfg.Energy.OnThermal = ctl.onThermal
	ctl.eventSubs = []func(Event){func(ev Event) { ctl.built = append(ctl.built, ev) }}
	if cfg.Elastic != nil {
		ctl.initElastic(*cfg.Elastic)
	}
	if cfg.Faults != nil {
		ctl.initFaults()
	}
	if cfg.Migration != nil {
		ctl.initMigration()
	}
	// Nodes start idle; with sleep enabled they doze off unless a job
	// claims them within the idle timeout.
	for _, n := range c.Nodes {
		ctl.armSleep(n)
	}
	ctl.eventSubs = nil
	return ctl
}

// Energy returns the controller's power accountant.
func (c *Controller) Energy() *energy.Accountant { return c.cfg.Energy }

// Config returns the configuration the controller was built with.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the controller's running tallies.
func (c *Controller) Stats() Stats {
	s := c.stats
	s.FreePoolOps = c.pool.ops
	return s
}

// SubscribeSamples registers fn to observe every allocation snapshot.
// Subscribers are invoked in registration order; registering never
// displaces an earlier subscriber. fn only observes: it may read the
// controller but never calls back into anything that changes it (a
// scheduling pass samples while it ranges over the pending queue).
func (c *Controller) SubscribeSamples(fn SampleFunc) { c.sampleSubs = append(c.sampleSubs, fn) }

// SubscribeEvents registers fn to observe every controller event as it
// is emitted. The controller keeps no log: a caller that wants one
// subscribes before the run. fn first receives the events NewController
// emitted (the elastic fleet's initial power-offs), then every later
// event in order. fn only observes: it may read the controller but
// never calls back into anything that changes it (a scheduling pass
// emits while it ranges over the pending queue).
func (c *Controller) SubscribeEvents(fn func(Event)) {
	for _, ev := range c.built {
		fn(ev)
	}
	c.eventSubs = append(c.eventSubs, fn)
}

// TotalEvents counts every lifecycle event emitted (probes excluded).
func (c *Controller) TotalEvents() uint64 { return c.eventsTotal }

// emit fans one event out to the subscribers.
func (c *Controller) emit(ev Event) {
	if !ev.Kind.Probe() {
		c.eventsTotal++
	}
	for _, fn := range c.eventSubs {
		fn(ev)
	}
}

// ReconfigRPC serves one decision round trip for process p: queue for
// the controller's single decision slot, pay the service time, decide.
// This is the server side of dmr_check_status.
func (c *Controller) ReconfigRPC(p *sim.Proc, j *Job, req ResizeRequest) Decision {
	start := c.k.Now()
	c.rpcSlot.Acquire(p)
	p.Sleep(c.cfg.RPCService)
	dec := c.Reconfig(j, req)
	c.rpcSlot.Release()
	ev := Event{T: c.k.Now(), Kind: EvDecide, JobID: j.ID, Info: dec.Action.String(), Start: start}
	if c.cfg.Policy != nil {
		// Reconfig consulted the policy iff the job still runs.
		ev.Nodes = len(j.alloc)
	}
	c.emit(ev)
	return dec
}

// Cluster returns the underlying hardware.
func (c *Controller) Cluster() *platform.Cluster { return c.cluster }

// Kernel returns the simulation kernel.
func (c *Controller) Kernel() *sim.Kernel { return c.k }

// TotalNodes returns the cluster size.
func (c *Controller) TotalNodes() int { return len(c.cluster.Nodes) }

// FreeNodes returns how many nodes are currently unallocated.
func (c *Controller) FreeNodes() int { return c.pool.total }

// AllocatedNodes returns how many nodes a job or the held pool owns. A
// crashed node counts while its job still holds it.
func (c *Controller) AllocatedNodes() int { return c.owned }

// Job returns the job with the given id, or nil.
func (c *Controller) Job(id int) *Job { return c.jobs[id] }

// RunningJobs returns the running jobs sorted by id.
func (c *Controller) RunningJobs() []*Job {
	out := make([]*Job, 0, len(c.running))
	for _, j := range c.running {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// PendingJobs returns the pending queue in priority order. The queue is
// maintained sorted (insertPending), so this is a copy, not a sort.
func (c *Controller) PendingJobs() []*Job {
	out := make([]*Job, len(c.pending))
	copy(out, c.pending)
	return out
}

// CompletedJobs returns how many jobs have finished.
func (c *Controller) CompletedJobs() int { return c.completed }

// Submit enqueues a job. The controller assigns the ID and stamps the
// submit time. Safe to call from kernel or process context.
func (c *Controller) Submit(j *Job) *Job {
	if j.ReqClass != "" && c.cluster.ClassCount(j.ReqClass) == 0 {
		// No node will ever satisfy the constraint: the job would pend
		// forever. A real RMS rejects such submissions at the door.
		panic(fmt.Sprintf("slurm: job %q requires class %q, which no node provides", j.Name, j.ReqClass))
	}
	c.nextID++
	j.ID = c.nextID
	j.SubmitTime = c.k.Now()
	j.State = StatePending
	if j.MinNodes == 0 {
		j.MinNodes = j.ReqNodes
	}
	if j.MaxNodes == 0 {
		j.MaxNodes = j.ReqNodes
	}
	c.jobs[j.ID] = j
	c.insertPending(j)
	c.log(EvSubmit, j, nil, fmt.Sprintf("req=%d", j.ReqNodes))
	c.armAdapt()
	c.armMigrate()
	c.kick()
	return j
}

// Cancel removes a pending job from the queue (running jobs are not
// cancellable in this reproduction; the paper only cancels pending
// resizer jobs).
func (c *Controller) Cancel(j *Job) error {
	if j.State != StatePending {
		return fmt.Errorf("slurm: cancel: job %d is %v, not pending", j.ID, j.State)
	}
	c.removePending(j)
	j.State = StateCancelled
	j.EndTime = c.k.Now()
	c.log(EvCancel, j, nil, "")
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
	c.kick()
	return nil
}

// JobComplete is called by the application layer when a job's processes
// have all finished. It releases the allocation.
func (c *Controller) JobComplete(j *Job) {
	if j.State != StateRunning {
		panic(fmt.Sprintf("slurm: JobComplete on %v job %d", j.State, j.ID))
	}
	nodes := c.vacate(j)
	j.State = StateCompleted
	j.EndTime = c.k.Now()
	c.completed++
	c.log(EvEnd, j, nodes, "")
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
	c.sample()
	c.armAdapt()
	c.kick()
}

// vacate ends the job's current incarnation, the teardown completion,
// crash requeue and migration requeue share: it settles node-seconds
// and throttle time, drops a migration order the runtime never picked
// up, clears the incarnation's failure hook, and releases the
// allocation, which it returns. With the hook cleared, a crash before
// the next incarnation's runtime registers its own takes the
// controller's on-the-spot requeue. The job leaves the running set
// before the release: releaseNodes triggers capRestore, which must not
// price a phantom restore step for it against nodes that are idle by
// then, blocking genuinely throttled jobs from stepping up.
func (c *Controller) vacate(j *Job) []*platform.Node {
	j.accumulateNodeSeconds(c.k.Now())
	c.settleThrottle(j)
	c.dropMigrationOrder(j)
	j.OnNodeFail = nil
	nodes := j.alloc
	j.alloc = nil
	j.invalidateSpeed()
	j.pstate = 0
	delete(c.running, j.ID)
	c.removeEndOrder(j)
	c.releaseNodes(nodes)
	return nodes
}

// freeList returns the free nodes in index order (tests, debugging).
func (c *Controller) freeList() []*platform.Node { return c.eligibleFree(nil) }

// eligibleFree returns a fresh slice of the free nodes job j may use
// (its hard class constraint applied), in index order.
func (c *Controller) eligibleFree(j *Job) []*platform.Node {
	out := make([]*platform.Node, 0, c.pool.countFor(j))
	for _, nd := range c.cluster.Nodes {
		if c.pool.contains(nd.Index) && (j == nil || j.ClassEligible(nd)) {
			out = append(out, nd)
		}
	}
	return out
}

// freeFor returns how many free nodes job j may be allocated.
func (c *Controller) freeFor(j *Job) int { return c.pool.countFor(j) }

// pickAnchor returns the speed class an allocation for j should grow
// around: the slowest P0 speed of the job's current allocation — or,
// for an expand-dance resizer, of its dance target's allocation, since
// the nodes end up grafted there. ok is false for fresh starts (nothing
// allocated yet) and outside ClassAware mode.
func (c *Controller) pickAnchor(j *Job) (float64, bool) {
	if j == nil || !c.cfg.ClassAware {
		return 0, false
	}
	a := j
	if j.Resizer && j.Dependency.Type == DepExpand {
		if t := c.jobs[j.Dependency.JobID]; t != nil {
			a = t
		}
	}
	if len(a.alloc) == 0 {
		return 0, false
	}
	min := 1.0
	for _, nd := range a.alloc {
		if s := nd.Speed(); s < min {
			min = s
		}
	}
	return min, true
}

// pickVariant is one resolved placement order: the hard class the job
// is pinned to, the soft preference when it is honoured ("" otherwise)
// and the anchor speed class. Allocations with equal variants receive
// the same affinity order and differ only in how much of it they take.
type pickVariant struct {
	req, pref string
	anchor    float64
	anchored  bool
}

// pickOrder is one variant's affinity ordering of the eligible free
// nodes at one pool version; pickNodes(j, n) is its n-prefix. It is
// merged lazily, only as deep as the widest prefix asked for: tier is
// the first ranked class of the tier being merged, part the awake,
// booting or asleep bitmaps within it, next the node index to resume
// from.
//
// The prefix aggregates price the first m nodes in slot m-1: wake is
// the worst launch delay (wakePreview), speed the slowest start speed
// (nodeStartSpeed), take the count of takeClass's nodes. Wake remainders
// depend on the clock, and sleep rungs and thermal floors move without
// a pool-version bump, so the aggregates belong to one schedulePass
// (pass) and are rebuilt, lazily again, by the next.
type pickOrder struct {
	v                pickVariant
	nodes            []*platform.Node
	tier, part, next int

	pass      uint64
	wake      []sim.Time
	speed     []float64
	takeClass string
	take      []int
}

// pickCache holds the orderings built at one free-pool version; every
// mutation that could change a placement answer bumps the version and
// retires them. orders[:live] are current. A retired struct is reused
// for its aggregate buffers but never for its nodes: callers read the
// prefixes they were handed (QueueView, capAdmit, capFits), so each
// ordering's node slice is freshly allocated. The handful of live
// variants makes a linear scan cheaper than a map.
type pickCache struct {
	version uint64
	live    int
	orders  []*pickOrder
	rank    []tierClass // rankClasses scratch
	sets    []bitset    // extendOrder scratch: one tier's bitmaps
}

// tierClass is one eligible class pool under a variant's ranking keys.
type tierClass struct {
	cp          *classPool
	pref, anchr bool
}

// pickNodes returns the n free nodes an allocation for job j would
// receive without committing it. The candidate pool is j's eligible free
// nodes, ordered by descending affinity:
//
//  1. the job's soft-preferred class before any other — but only when
//     the whole width fits in that class: the coupled step loop runs at
//     its slowest rank, so a partially-honored preference caps the
//     premium nodes at the slow pace and serves nobody,
//  2. under ClassAware, nodes matching the job's anchor class first —
//     an expansion wants the class the job already runs at, because
//     mismatched extras burn power at fractional throughput,
//  3. under ClassAware, cheaper work first (ascending P0 joules per
//     unit of reference work): class-indifferent jobs are steered to
//     the efficiency class, keeping the premium class free for the
//     jobs that pinned or preferred it,
//  4. awake nodes before booting ones before sleeping ones (no wake
//     latency, a remainder of one, a full rung),
//  5. node-index order (determinism).
//
// Keys 1–3 are per-class properties and key 4 splits each class pool in
// three, so instead of sorting the whole pool the pick ranks the class
// tiers and merges their index-sorted bitmaps — the same order the
// stable affinity sort produced. The answer is a prefix of the cached
// ordering (pickOrderFor); callers must not modify it.
func (c *Controller) pickNodes(j *Job, n int) []*platform.Node {
	return c.pickOrderFor(j, n).nodes[:n:n]
}

// pickOrderFor resolves the variant an n-node allocation for j receives
// and returns its ordering, merged at least n deep. Keys 1 and 2 depend
// on the width: the preference holds only when all n nodes fit the
// preferred class, and a fresh ClassAware start without one anchors to
// the class of the n-th node of its unanchored order — the priciest node
// the width cannot avoid. A job that must dip beyond the efficiency
// class thereby goes pure at the dip class instead of mixing: a mixed
// allocation runs every node at the slowest rank's pace, the worst point
// of the energy/makespan trade-off.
func (c *Controller) pickOrderFor(j *Job, n int) *pickOrder {
	if total := c.pool.countFor(j); n > total {
		panic(fmt.Sprintf("slurm: allocating %d of %d eligible free nodes", n, total))
	}
	var v pickVariant
	v.anchor, v.anchored = c.pickAnchor(j)
	if j != nil {
		v.req = j.ReqClass
		if pref := j.PrefClass; pref != "" && (v.req == "" || v.req == pref) {
			if cp := c.pool.class(pref); cp != nil && cp.count() >= n {
				v.pref = pref
			}
		}
	}
	if c.cfg.ClassAware && !v.anchored && v.pref == "" && n > 0 {
		u := c.variantOrder(v, false)
		c.extendOrder(u, n)
		v.anchor, v.anchored = u.nodes[n-1].Speed(), true
	}
	o := c.variantOrder(v, true)
	c.extendOrder(o, n)
	return o
}

// variantOrder returns variant v's ordering at the current pool version,
// starting an empty one when there is none. count tallies the lookup in
// Stats as an ordering reused (PickHits) or built (PickMisses).
func (c *Controller) variantOrder(v pickVariant, count bool) *pickOrder {
	pc := &c.pick
	if pc.version != c.pool.version {
		pc.version, pc.live = c.pool.version, 0
	}
	for _, o := range pc.orders[:pc.live] {
		if o.v == v {
			if count {
				c.stats.PickHits++
			}
			return o
		}
	}
	if count {
		c.stats.PickMisses++
	}
	if pc.live == len(pc.orders) {
		pc.orders = append(pc.orders, &pickOrder{})
	}
	o := pc.orders[pc.live]
	pc.live++
	*o = pickOrder{v: v, wake: o.wake[:0], speed: o.speed[:0], take: o.take[:0]}
	return o
}

// rankClasses orders j's eligible class pools by variant v's keys
// (preference, anchor match, energy per work), stably: pools comparing
// equal keep first-seen order and form one tier, whose nodes interleave
// by awake-booting-asleep then index — the stable sort's tie-break
// order. The result is scratch, valid until the next call.
func (c *Controller) rankClasses(v pickVariant) []tierClass {
	r := c.pick.rank[:0]
	for _, cp := range c.pool.classes {
		if v.req != "" && cp.class != v.req {
			continue
		}
		tc := tierClass{cp: cp, pref: cp.class == v.pref, anchr: v.anchored && cp.speed == v.anchor}
		i := len(r)
		r = append(r, tc)
		for ; i > 0 && c.tierLess(v, tc, r[i-1]); i-- {
			r[i] = r[i-1]
		}
		r[i] = tc
	}
	c.pick.rank = r
	return r
}

// tierLess is rankClasses' order.
func (c *Controller) tierLess(v pickVariant, a, b tierClass) bool {
	if v.pref != "" && a.pref != b.pref {
		return a.pref
	}
	if v.anchored && a.anchr != b.anchr {
		return a.anchr
	}
	if c.cfg.ClassAware && a.cp.epw != b.cp.epw {
		return a.cp.epw < b.cp.epw
	}
	return false
}

// extendOrder merges o's affinity order out to at least n nodes,
// resuming where the previous extension stopped (the pool has not moved
// since: a mutation retires the ordering).
func (c *Controller) extendOrder(o *pickOrder, n int) {
	if len(o.nodes) >= n {
		return
	}
	if o.nodes == nil {
		o.nodes = make([]*platform.Node, 0, n)
	}
	ranked := c.rankClasses(o.v)
	for o.tier < len(ranked) && len(o.nodes) < n {
		hi := o.tier + 1
		for hi < len(ranked) && !c.tierLess(o.v, ranked[o.tier], ranked[hi]) {
			hi++
		}
		sets := c.pick.sets[:0]
		for _, tc := range ranked[o.tier:hi] {
			sets = append(sets, tc.cp.part(o.part))
		}
		c.pick.sets = sets
		o.nodes, o.next = c.pool.appendMerged(o.nodes, sets, o.next, n)
		if o.next == len(sets[0])<<6 {
			o.part, o.next = o.part+1, 0
			if o.part == parts {
				o.tier, o.part = hi, 0
			}
		}
	}
}

// allocateNodes takes n nodes from the free pool in pickNodes order. It
// copies the committed prefix: the allocation outlives the ordering, and
// must not pin the rest of its node slice.
func (c *Controller) allocateNodes(j *Job, n int) []*platform.Node {
	nodes := append(make([]*platform.Node, 0, n), c.pickNodes(j, n)...)
	for _, nd := range nodes {
		c.pool.remove(nd.Index)
		c.owner[nd.Index] = j.ID
	}
	c.owned += n
	return nodes
}

// releaseNodes returns nodes to the free pool. The freed draw is
// headroom under a power cap: throttled jobs step back first.
func (c *Controller) releaseNodes(nodes []*platform.Node) {
	c.powerRelease(nodes)
	c.pool.bump() // the releasing job's allocation changed even if every node failed
	c.owned -= len(nodes)
	now := c.k.Now()
	for _, nd := range nodes {
		c.owner[nd.Index] = 0
		if c.nodeFailed(nd.Index) {
			// The node crashed while this job held it: it moves to the
			// fault books, never the pool. A repair that completed while
			// the job hung on finalizes now.
			if c.faults.repairParked[nd.Index] {
				c.finishRepair(nd.Index)
			}
			continue
		}
		if c.bootUntil[nd.Index] > now {
			// Released inside its wake window: the machine is still
			// booting, so it joins the pool's booting half — a new
			// allocation pays the remaining transition, not zero.
			c.pool.addBooting(nd.Index)
			continue
		}
		c.pool.add(nd.Index)
	}
	c.capRestore()
}

// powerAllocate reports an allocation to the energy accountant and
// returns the longest wake latency among nodes resumed from sleep; the
// job's launch is delayed by that much (the machines are booting).
// The nodes come up at P-state ps (0 unless the power-cap governor
// admitted the job below full speed). Expand-dance resizers charge
// their draw to the dance target: resizer jobs are excluded from
// accounting, and the boot energy belongs to the job that asked to grow.
func (c *Controller) powerAllocate(j *Job, nodes []*platform.Node, ps int) sim.Time {
	chargeTo := j.ID
	if j.Resizer && j.Dependency.Type == DepExpand {
		chargeTo = j.Dependency.JobID
	}
	now := c.k.Now()
	var wake sim.Time
	for _, n := range nodes {
		c.sleepGen[n.Index]++ // cancel any armed sleep timer
		w := c.cfg.Energy.NodeActive(n.Index, chargeTo, ps)
		if bu := c.bootUntil[n.Index]; bu > now {
			// Allocated mid-boot (wake-ahead, a provision in flight, or a
			// release inside the wake window): the accountant reports no
			// new wake; what remains of the running transition is the
			// launch delay.
			if rem := bu - now; rem > w {
				w = rem
			}
		} else if w > 0 && c.elastic != nil {
			// Track the transition only under the elastic controller: the
			// release-inside-wake-window repricing below is part of the
			// elastic boot machinery, and fixed fleets keep the historical
			// event stream (determinism goldens) bit for bit.
			c.bootUntil[n.Index] = now + w
		}
		if w > 0 {
			c.logNode(EvWake, n, chargeTo)
			if w > wake {
				wake = w
			}
		}
	}
	return wake
}

// powerRelease reports released nodes to the accountant: they fall to
// idle draw and, with sleep enabled, re-arm their idle timers. A node
// still inside its wake window instead keeps drawing boot power until
// the transition completes (bootDone idles it and arms its sleep then).
func (c *Controller) powerRelease(nodes []*platform.Node) {
	now := c.k.Now()
	for _, n := range nodes {
		if c.nodeFailed(n.Index) {
			// Crashed hardware: the accountant already holds it at FAILED
			// draw; there is nothing to idle or re-arm until repair.
			continue
		}
		if c.bootUntil[n.Index] > now {
			c.cfg.Energy.ReleaseBooting(n.Index)
			c.scheduleBootDone(n)
			continue
		}
		c.cfg.Energy.NodeIdle(n.Index)
		c.armSleep(n)
	}
}

// scheduleBootDone arms the boot-completion timer for node n at its
// current bootUntil deadline. Duplicate timers are harmless: bootDone
// finalizes at most once per transition.
func (c *Controller) scheduleBootDone(n *platform.Node) {
	until := c.bootUntil[n.Index]
	c.k.At(until, func() { c.bootDone(n, until) })
}

// bootDone finalizes a wake/boot transition for a node that stayed free
// through it: the accountant lands it powered-on idle, the pool moves it
// to its class's awake half, and its idle-sleep ladder restarts. Stale timers — the node was allocated mid-boot, or a newer
// transition superseded this one — are no-ops.
func (c *Controller) bootDone(n *platform.Node, until sim.Time) {
	i := n.Index
	if c.bootUntil[i] != until || c.cfg.Energy.State(i) != energy.Booting {
		return
	}
	if c.faults != nil && c.faults.provBootUntil[i] == until {
		// An elastic provision boot landing on free hardware: the one
		// boot kind the injector may fail. The deadline match keys the
		// consult to this transition exactly — wake-ahead and
		// release-window boots never draw, and a node allocated mid-boot
		// implicitly boots fine (its bootUntil belongs to the job now).
		c.faults.provBootUntil[i] = 0
		if c.faults.model.BootFails() {
			c.bootFailed(n)
			return
		}
		c.faults.strikes[i] = 0
		c.faults.retryAt[i] = 0
	}
	c.cfg.Energy.FinishBoot(i)
	c.pool.markAwake(i)
	c.logNode(EvOnline, n, 0)
	c.armSleep(n)
	if c.elastic != nil {
		c.elasticBootLanded(n)
	}
	if c.capped() {
		c.capRestore()
	}
	c.kick()
}

// armSleep schedules the idle→sleep descent for a node that just became
// free. A later allocation bumps the node's generation, voiding any
// armed timer; the accountant additionally refuses to sleep non-idle
// nodes.
func (c *Controller) armSleep(n *platform.Node) {
	if len(c.cfg.SleepLadder) == 0 || c.isOffline(n.Index) || c.nodeFailed(n.Index) {
		return
	}
	c.sleepGen[n.Index]++
	c.armRung(n, c.sleepGen[n.Index], 0)
}

// armRung schedules one rung of the S-state ladder. Rungs chain: the
// next rung's timer is only armed after the previous one fires, so a
// node carries at most ONE pending sleep timer however deep the ladder
// — an idle fleet floods the calendar with O(nodes) timers, not
// O(nodes × rungs).
func (c *Controller) armRung(n *platform.Node, gen, rung int) {
	delay := c.cfg.SleepLadder[rung].AfterIdle
	if rung > 0 {
		delay -= c.cfg.SleepLadder[rung-1].AfterIdle
	}
	c.k.After(delay, func() {
		if c.sleepGen[n.Index] != gen {
			return
		}
		a := c.cfg.Energy
		wasSleeping := a.State(n.Index) == energy.Sleeping
		prevRung := a.SStateOf(n.Index)
		a.NodeSleep(n.Index, c.cfg.SleepLadder[rung].State)
		if a.State(n.Index) == energy.Sleeping && (!wasSleeping || a.SStateOf(n.Index) != prevRung) {
			// The node actually descended (the accountant refuses
			// non-idle nodes and clamps rungs past the profile's S-state
			// range, which can make a deeper rung a no-op). The free
			// pool orders awake nodes before sleeping ones: move the
			// node to its class's sleeping half.
			c.pool.markAsleep(n.Index)
			c.logNode(EvSleep, n, 0)
			if c.capped() {
				// The idle draw just dropped: headroom for throttled
				// jobs, and possibly enough watts to admit a cap-blocked
				// start.
				c.capRestore()
				c.kick()
			}
		}
		if rung+1 < len(c.cfg.SleepLadder) {
			c.armRung(n, gen, rung+1)
		}
	})
}

// onThermal receives every thermal DVFS step from the accountant: log
// it, re-price the owning job (its coupled step loop now runs at the
// thermal floor), and keep the power-cap governor honest — a throttle
// sheds watts that may restore governor-throttled jobs, while a restore
// on an active node raises draw the governor never admitted.
func (c *Controller) onThermal(node int, throttled bool, floor int) {
	n := c.cluster.Nodes[node]
	owner := c.owner[node]
	ev := Event{T: c.k.Now(), Kind: EvThermalRestore, Nodes: 1, Info: n.Name, Set: c.cluster.Nodes[node : node+1]}
	if throttled {
		ev.Kind = EvThermalThrottle
		ev.Info = fmt.Sprintf("%s p%d", n.Name, floor)
	}
	if owner > 0 {
		ev.JobID = owner
	}
	c.emit(ev)
	if owner > 0 {
		if j := c.running[owner]; j != nil {
			j.invalidateSpeed()
			c.repositionEndOrder(j)
		}
	}
	if c.capped() {
		if throttled {
			c.capRestore()
		} else {
			c.capEnforce()
		}
	}
}

// powerReattribute moves held nodes' draw to a different job (0 clears
// the attribution) during the expand dance.
func (c *Controller) powerReattribute(nodes []*platform.Node, jobID int) {
	for _, n := range nodes {
		c.cfg.Energy.Reattribute(n.Index, jobID)
	}
}

func (c *Controller) removePending(j *Job) {
	for i, p := range c.pending {
		if p == j {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// startJob allocates and launches a pending job. Kernel context. When
// the allocation includes sleeping nodes, the launch is delayed by the
// slowest wake transition — the nodes draw active power while booting
// but the application only starts once all of them are up.
func (c *Controller) startJob(j *Job, n int) {
	picked := c.allocateNodes(j, n)
	j.alloc = picked
	j.invalidateSpeed()
	if c.cfg.ClassAware {
		// Keep the stored allocation fast-first (stable by index) so a
		// later tail shrink releases the slowest nodes first and lifts
		// the coupled step loop's pace — the same invariant GrowJob
		// maintains. Safe before launch: no rank mapping exists yet. The
		// START event reports the nodes in pick order.
		j.alloc = append(make([]*platform.Node, 0, n), picked...)
		sort.SliceStable(j.alloc, func(a, b int) bool {
			return j.alloc[a].Speed() > j.alloc[b].Speed()
		})
	}
	j.noteClassSpeeds(j.alloc)
	if j.migrateTo != "" {
		// The migration pin has done its job: the allocation above was
		// constrained to the destination class. The job submitted
		// unconstrained, so the rest of its life runs that way again.
		j.ReqClass = ""
		j.migrateTo = ""
	}
	wake := c.powerAllocate(j, j.alloc, j.pstate)
	j.State = StateRunning
	j.StartTime = c.k.Now()
	j.lastAllocated = j.StartTime
	// A failure from here on loses work back to this point, until a
	// checkpoint advances the protected mark.
	j.ProtectedAt = j.StartTime
	c.removePending(j)
	c.running[j.ID] = j
	c.insertEndOrder(j)
	c.log(EvStart, j, picked, fmt.Sprintf("nodes=%d", n))
	if j.pstate > 0 {
		// Admitted below P0 by the power-cap governor: the throttle
		// episode starts with the job.
		j.throttledAt = j.StartTime
		c.log(EvThrottle, j, j.alloc, fmt.Sprintf("p%d (cap admission)", j.pstate))
	}
	c.sample()
	if j.Resizer {
		// Resizer starts fire synchronously: the expand dance's abort
		// path (CancelResizer on timeout) relies on "running implies
		// started", and the dance's own RPC steps overlap the boot.
		// The nodes are already charged active (boot) power.
		if j.onResizerStart != nil {
			j.onResizerStart(j)
		}
		return
	}
	if j.Launch != nil {
		// A crash inside the wake window requeues the job and may restart
		// it before this launch fires: the stale launch must not start the
		// new incarnation a second time.
		inc := j.Incarnation
		c.afterWake(wake, func() {
			if j.Incarnation == inc {
				j.Launch(j, j.alloc)
			}
		})
	}
}

// afterWake runs fn now, or after the wake delay when nodes are booting.
func (c *Controller) afterWake(wake sim.Time, fn func()) {
	if wake <= 0 {
		fn()
		return
	}
	c.k.After(wake, fn)
}

// kick schedules a coalesced scheduling pass after the reaction delay.
func (c *Controller) kick() {
	if c.kicked {
		return
	}
	c.kicked = true
	c.k.After(c.cfg.SchedDelay, func() {
		c.kicked = false
		c.schedulePass()
	})
}

// sample pushes an allocation snapshot to every subscriber.
func (c *Controller) sample() {
	t := c.k.Now()
	alloc := c.AllocatedNodes()
	for _, fn := range c.sampleSubs {
		fn(t, alloc, len(c.running), c.completed, len(c.pending))
	}
}

// logNode emits a node event; Set is the node itself.
func (c *Controller) logNode(kind EventKind, n *platform.Node, jobID int) {
	c.emit(Event{
		T:     c.k.Now(),
		Kind:  kind,
		JobID: jobID,
		Nodes: 1,
		Info:  n.Name,
		Set:   c.cluster.Nodes[n.Index : n.Index+1],
	})
}

// jobEvent builds an event about job j that moved the nodes in set.
func (c *Controller) jobEvent(kind EventKind, j *Job, set []*platform.Node, detail string) Event {
	return Event{
		T:     c.k.Now(),
		Kind:  kind,
		JobID: j.ID,
		Nodes: len(j.alloc),
		Info:  detail,
		Set:   set,
	}
}

// log emits an event about job j.
func (c *Controller) log(kind EventKind, j *Job, set []*platform.Node, detail string) {
	c.emit(c.jobEvent(kind, j, set, detail))
}
