package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
)

// Controller telemetry. Attach subscribes a sink to a controller's event
// and sample streams; everything it records derives from the stream,
// virtual time and the state the stream points at, so the controller
// itself holds no telemetry code.
//
// Chrome trace track layout (pid/tid):
//
//	pid 1 "scheduler"  tid 1: one instant per scheduling pass
//	                   tid 2: one span per DMR decision round trip
//	                   counter series: queue_depth, allocated_nodes
//	pid 2 "jobs"       tid = job ID: "pend" span from submit to start,
//	                   "run w=N [pK]" spans re-opened on every resize or
//	                   governor P-state move
//	pid 3 "nodes"      tid = node index: occupancy spans "jN [pK] [tF]",
//	                   "held jN", "SK" (sleep rung), "failed", "unhealthy",
//	                   "off", "boot"; gaps are powered-on idle
const (
	tracePidSched = 1
	tracePidJobs  = 2
	tracePidNodes = 3

	traceTidPasses = 1
	traceTidDMR    = 2
)

// Histogram bucket bounds. Wait and stretch cover the realistic
// workloads' dynamic range.
var (
	waitBuckets        = []float64{1, 10, 60, 300, 1800, 7200, 43200}
	stretchBuckets     = []float64{1, 1.05, 1.1, 1.25, 1.5, 2, 4, 8}
	lostWorkBuckets    = []float64{1, 10, 60, 300, 1800, 7200, 43200}
	migrateCostBuckets = []float64{1, 10, 60, 300, 1800, 7200}
)

// ctlObserver is the sink's subscription to one controller: its
// instrument handles and the tracer's open-span bookkeeping.
type ctlObserver struct {
	ctl  *slurm.Controller
	acct *energy.Accountant
	tr   *Tracer
	reg  *Registry

	eventsEmitted, jobsCompleted  *Counter
	sleeps, wakes                 *Counter
	thermThrottles, thermRestores *Counter
	dmrChecks                     *Counter
	dmrVerdicts                   map[string]*Counter // by slurm.Action.String()
	queueDepth, allocatedNodes    *Gauge
	freepoolOps                   *Gauge
	waitHist, stretchHist         *Histogram

	// sleepRung counts descents per S-state, created at first descent.
	sleepRung []*Counter

	// Feature instruments. A feature the controller does not run
	// registers them in a scratch registry that is never exported, so a
	// fixed, fault-free, migration-free run keeps its snapshot.
	fleetNodes  *Gauge
	bootRetries *Counter
	lostWork    *Histogram
	migrateCost *Histogram

	// tallies are the counters fed from slurm.Stats, which counts from
	// the controller's construction; published is the snapshot they last
	// caught up with, pass the one at the last PASS.
	tallies         []tally
	published, pass slurm.Stats

	// Open-span state: the label each node/job track currently carries
	// and since when. An empty label is a gap (idle node, finished job).
	nodeLabel []string
	nodeSince []sim.Time
	jobLabel  map[int]string
	jobSince  map[int]sim.Time
}

// tally is a counter that mirrors one slurm.Stats field.
type tally struct {
	c     *Counter
	field func(slurm.Stats) int
}

// Attach subscribes s to the controller's events and samples, and to
// its accountant's power samples: it registers the controller
// instruments and names the trace tracks. Attach a sink to one
// controller, right after building it; Flush closes the record once the
// run has drained.
func (s *Sink) Attach(ctl *slurm.Controller) {
	if s.ctl != nil {
		panic("telemetry: sink already attached to a controller")
	}
	reg := s.Reg
	nodes := len(ctl.Cluster().Nodes)
	feature := func(on bool) *Registry {
		if on {
			return reg
		}
		return NewRegistry()
	}
	cfg := ctl.Config()
	el, fl, mg := feature(cfg.Elastic != nil), feature(cfg.Faults != nil), feature(cfg.Migration != nil)
	o := &ctlObserver{
		ctl:            ctl,
		acct:           ctl.Energy(),
		tr:             s.Trace,
		reg:            reg,
		eventsEmitted:  reg.Counter("events_emitted_total"),
		jobsCompleted:  reg.Counter("jobs_completed_total"),
		sleeps:         reg.Counter("node_sleep_total"),
		wakes:          reg.Counter("node_wake_total"),
		thermThrottles: reg.Counter("thermal_throttles_total"),
		thermRestores:  reg.Counter("thermal_restores_total"),
		dmrChecks:      reg.Counter("dmr_checks_total"),
		dmrVerdicts: map[string]*Counter{
			slurm.Expand.String():   reg.Counter("dmr_expand_total"),
			slurm.Shrink.String():   reg.Counter("dmr_shrink_total"),
			slurm.NoAction.String(): reg.Counter("dmr_noaction_total"),
		},
		queueDepth:     reg.Gauge("sched_queue_depth"),
		allocatedNodes: reg.Gauge("sched_allocated_nodes"),
		freepoolOps:    reg.Gauge("sched_freepool_ops"),
		waitHist:       reg.Histogram("job_wait_seconds", waitBuckets),
		stretchHist:    reg.Histogram("job_stretch", stretchBuckets),
		fleetNodes:     el.Gauge("elastic_fleet_nodes"),
		bootRetries:    fl.Counter("fault_boot_retries_total"),
		lostWork:       fl.Histogram("fault_lost_work_seconds", lostWorkBuckets),
		migrateCost:    mg.Histogram("migration_cost_seconds", migrateCostBuckets),
		tallies: []tally{
			{reg.Counter("sched_passes_total"), func(s slurm.Stats) int { return s.Passes }},
			{reg.Counter("sched_main_starts_total"), func(s slurm.Stats) int { return s.MainStarts }},
			{reg.Counter("sched_backfill_starts_total"), func(s slurm.Stats) int { return s.BackfillStarts }},
			{reg.Counter("sched_backfill_scanned_total"), func(s slurm.Stats) int { return s.BackfillScanned }},
			{reg.Counter("sched_backfill_skipped_total"), func(s slurm.Stats) int { return s.BackfillScanned - s.BackfillStarts }},
			{reg.Counter("sched_pick_cache_hits_total"), func(s slurm.Stats) int { return s.PickHits }},
			{reg.Counter("sched_pick_cache_misses_total"), func(s slurm.Stats) int { return s.PickMisses }},
			{reg.Counter("cap_throttles_total"), func(s slurm.Stats) int { return s.CapThrottles }},
			{reg.Counter("cap_restores_total"), func(s slurm.Stats) int { return s.CapRestores }},
			{reg.Counter("cap_admit_p0_total"), func(s slurm.Stats) int { return s.CapAdmitP0 }},
			{reg.Counter("cap_admit_deep_total"), func(s slurm.Stats) int { return s.CapAdmitDeep }},
			{reg.Counter("cap_deferred_total"), func(s slurm.Stats) int { return s.CapDeferred }},
			{el.Counter("elastic_boots_total"), func(s slurm.Stats) int { return s.Boots }},
			{el.Counter("elastic_decommissions_total"), func(s slurm.Stats) int { return s.Decommissions }},
			{fl.Counter("fault_failures_total"), func(s slurm.Stats) int { return s.Failures }},
			{fl.Counter("fault_requeues_total"), func(s slurm.Stats) int { return s.Requeues }},
			{mg.Counter("migration_orders_total"), func(s slurm.Stats) int { return s.MigrationOrders }},
			{mg.Counter("migrations_total"), func(s slurm.Stats) int { return s.Migrations }},
		},
		nodeLabel: make([]string, nodes),
		nodeSince: make([]sim.Time, nodes),
		jobLabel:  make(map[int]string),
		jobSince:  make(map[int]sim.Time),
	}
	s.ctl = o
	o.fleetNodes.Set(float64(ctl.FleetNodes()))
	power := reg.Gauge("cluster_power_w")
	o.acct.SubscribePowerSamples(func(_ sim.Time, w float64) { power.Set(w) })
	tr := s.Trace
	tr.MetaProcess(tracePidSched, "scheduler")
	tr.MetaProcess(tracePidJobs, "jobs")
	tr.MetaProcess(tracePidNodes, "nodes")
	tr.MetaThread(tracePidSched, traceTidPasses, "passes")
	tr.MetaThread(tracePidSched, traceTidDMR, "dmr decisions")
	for _, n := range ctl.Cluster().Nodes {
		tr.MetaThread(tracePidNodes, n.Index, n.Name)
	}
	ctl.SubscribeSamples(o.sample)
	ctl.SubscribeEvents(o.event)
}

// Flush closes every open trace span at the controller's current virtual
// time and publishes the end-of-run gauges and the Stats-fed counters.
// Call it once the simulation has drained (core.System.Run does); a
// second Flush adds nothing. Without an attached controller it is a
// no-op.
func (s *Sink) Flush() {
	o := s.ctl
	if o == nil {
		return
	}
	now := o.ctl.Kernel().Now()
	for idx := range o.nodeLabel {
		o.nodeSpan(now, idx, "")
	}
	ids := make([]int, 0, len(o.jobLabel))
	for id := range o.jobLabel {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		o.jobSpan(now, id, "")
	}
	st := o.ctl.Stats()
	for _, t := range o.tallies {
		t.c.Add(uint64(t.field(st) - t.field(o.published)))
	}
	o.published = st
	o.freepoolOps.Set(float64(st.FreePoolOps))
	o.queueDepth.Set(float64(len(o.ctl.PendingJobs())))
	o.allocatedNodes.Set(float64(o.ctl.AllocatedNodes()))
}

// sample publishes an allocation snapshot as gauges and counter series.
func (o *ctlObserver) sample(t sim.Time, alloc, _, _, pending int) {
	o.queueDepth.Set(float64(pending))
	o.allocatedNodes.Set(float64(alloc))
	o.tr.Counter(tracePidSched, "queue_depth", t, Arg{Key: "pending", Val: pending})
	o.tr.Counter(tracePidSched, "allocated_nodes", t, Arg{Key: "nodes", Val: alloc})
}

// event records one controller event.
func (o *ctlObserver) event(ev slurm.Event) {
	if !ev.Kind.Probe() {
		o.eventsEmitted.Inc()
	}
	t := ev.T
	switch ev.Kind {
	case slurm.EvSubmit:
		if j := o.ctl.Job(ev.JobID); !j.Resizer {
			o.tr.MetaThread(tracePidJobs, j.ID, j.Name)
			o.jobSpan(t, j.ID, "pend")
		}
	case slurm.EvStart:
		j := o.ctl.Job(ev.JobID)
		o.nodeSpans(t, ev.Set, jobNodeLabel(j))
		if !j.Resizer {
			o.waitHist.Observe(j.WaitTime().Seconds())
		}
		o.jobTrack(t, j, runLabel(j))
	case slurm.EvEnd:
		o.nodeSpans(t, ev.Set, "")
		o.jobsCompleted.Inc()
		j := o.ctl.Job(ev.JobID)
		if e := j.ExecTime(); e > 0 && !j.Resizer {
			o.stretchHist.Observe(float64(j.CompletionTime()) / float64(e))
		}
		o.jobTrack(t, j, "")
	case slurm.EvCancel:
		o.jobTrack(t, o.ctl.Job(ev.JobID), "")
	case slurm.EvDetach:
		o.nodeSpans(t, ev.Set, fmt.Sprintf("held j%d", ev.JobID))
	case slurm.EvGrow, slurm.EvThrottle, slurm.EvRestore:
		j := o.ctl.Job(ev.JobID)
		o.nodeSpans(t, ev.Set, jobNodeLabel(j))
		o.jobTrack(t, j, runLabel(j))
	case slurm.EvShrink:
		o.nodeSpans(t, ev.Set, "")
		j := o.ctl.Job(ev.JobID)
		o.jobTrack(t, j, runLabel(j))
	case slurm.EvRequeue, slurm.EvMigrate:
		o.nodeSpans(t, ev.Set, "")
		if ev.Kind == slurm.EvRequeue {
			o.lostWork.Observe(ev.Value)
		} else {
			o.migrateCost.Observe(ev.Value)
		}
		o.jobTrack(t, o.ctl.Job(ev.JobID), "pend")
	case slurm.EvLostWork:
		o.lostWork.Observe(ev.Value)
	case slurm.EvSleep:
		i := ev.Set[0].Index
		rung := o.acct.SStateOf(i)
		o.sleeps.Inc()
		o.sleepCounter(rung).Inc()
		o.nodeSpan(t, i, fmt.Sprintf("S%d", rung))
	case slurm.EvWake:
		o.wakes.Inc()
	case slurm.EvThermalThrottle, slurm.EvThermalRestore:
		o.thermal(ev)
	case slurm.EvBoot:
		o.fleetNodes.Set(float64(o.ctl.FleetNodes()))
		o.nodeSpan(t, ev.Set[0].Index, "boot")
	case slurm.EvOnline:
		o.nodeSpan(t, ev.Set[0].Index, "")
	case slurm.EvOffline:
		o.fleetNodes.Set(float64(o.ctl.FleetNodes()))
		o.nodeSpan(t, ev.Set[0].Index, "off")
	case slurm.EvBootFail:
		o.fleetNodes.Set(float64(o.ctl.FleetNodes()))
		i := ev.Set[0].Index
		if o.ctl.NodeUnhealthy(i) {
			o.nodeSpan(t, i, "unhealthy")
		} else {
			o.bootRetries.Inc()
			o.nodeSpan(t, i, "off")
		}
	case slurm.EvFail:
		o.nodeSpan(t, ev.Set[0].Index, "failed")
	case slurm.EvRepair:
		// A boot-unhealthy node stays powered off after its repair; a
		// crashed one returns to the pool.
		if i := ev.Set[0].Index; o.nodeLabel[i] != "unhealthy" {
			o.nodeSpan(t, i, "")
		}
	case slurm.EvPass:
		st := o.ctl.Stats()
		o.tr.Instant(tracePidSched, traceTidPasses, "sched", "pass", t,
			Arg{Key: "main_starts", Val: st.MainStarts - o.pass.MainStarts},
			Arg{Key: "backfill_starts", Val: st.BackfillStarts - o.pass.BackfillStarts},
			Arg{Key: "backfill_scanned", Val: st.BackfillScanned - o.pass.BackfillScanned})
		o.pass = st
	case slurm.EvDecide:
		o.tr.Span(tracePidSched, traceTidDMR, "dmr", fmt.Sprintf("j%d %s", ev.JobID, ev.Info), ev.Start, t)
		if ev.Nodes > 0 { // the policy saw the request
			o.dmrChecks.Inc()
			o.dmrVerdicts[ev.Info].Inc()
		}
	}
}

// thermal records a thermal DVFS step and relabels the owning job's
// node with the new floor.
func (o *ctlObserver) thermal(ev slurm.Event) {
	throttled := ev.Kind == slurm.EvThermalThrottle
	if throttled {
		o.thermThrottles.Inc()
	} else {
		o.thermRestores.Inc()
	}
	if ev.JobID <= 0 {
		return
	}
	i := ev.Set[0].Index
	label := jobNodeLabel(o.ctl.Job(ev.JobID))
	if throttled {
		label = fmt.Sprintf("%s t%d", label, o.acct.ThermalFloor(i))
	}
	o.nodeSpan(ev.T, i, label)
}

// jobTrack relabels job j's track. Resizer jobs are dance-internal and
// get none.
func (o *ctlObserver) jobTrack(t sim.Time, j *slurm.Job, label string) {
	if !j.Resizer {
		o.jobSpan(t, j.ID, label)
	}
}

// sleepCounter returns the per-rung descent counter, creating shallower
// rungs as needed (export order is sorted by name regardless).
func (o *ctlObserver) sleepCounter(rung int) *Counter {
	for len(o.sleepRung) <= rung {
		o.sleepRung = append(o.sleepRung,
			o.reg.Counter(fmt.Sprintf("node_sleep_s%d_total", len(o.sleepRung))))
	}
	return o.sleepRung[rung]
}

// nodeSpans gives every node in set the same label, except that a node
// labelled "failed" keeps that label until its REPAIR. A FAILED node is
// never allocated, but the job it crashed under still lists it: in the
// REQUEUE at the crash instant, or in the job's events until its runtime
// splices the node out.
func (o *ctlObserver) nodeSpans(t sim.Time, set []*platform.Node, label string) {
	for _, n := range set {
		if o.nodeLabel[n.Index] != "failed" {
			o.nodeSpan(t, n.Index, label)
		}
	}
}

// nodeSpan closes node idx's open span (if its label changes) and opens
// a new one; an empty label leaves a gap. Zero-duration intermediate
// states are collapsed: at one instant only the last label survives.
func (o *ctlObserver) nodeSpan(now sim.Time, idx int, label string) {
	if o.nodeLabel[idx] == label {
		return
	}
	if old := o.nodeLabel[idx]; old != "" && now > o.nodeSince[idx] {
		o.tr.Span(tracePidNodes, idx, "node", old, o.nodeSince[idx], now)
	}
	o.nodeLabel[idx] = label
	o.nodeSince[idx] = now
}

// jobSpan is nodeSpan for job tracks (tid = job ID).
func (o *ctlObserver) jobSpan(now sim.Time, id int, label string) {
	if o.jobLabel[id] == label {
		return
	}
	if old := o.jobLabel[id]; old != "" && now > o.jobSince[id] {
		o.tr.Span(tracePidJobs, id, "job", old, o.jobSince[id], now)
	}
	if label == "" {
		delete(o.jobLabel, id)
		delete(o.jobSince, id)
		return
	}
	o.jobLabel[id] = label
	o.jobSince[id] = now
}

// jobNodeLabel is the occupancy label a job stamps on its nodes.
func jobNodeLabel(j *slurm.Job) string {
	if ps := j.PState(); ps > 0 {
		return fmt.Sprintf("j%d p%d", j.ID, ps)
	}
	return fmt.Sprintf("j%d", j.ID)
}

// runLabel is the job-track label of a running interval at its current
// width and governor P-state.
func runLabel(j *slurm.Job) string {
	if ps := j.PState(); ps > 0 {
		return fmt.Sprintf("run w=%d p%d", j.NNodes(), ps)
	}
	return fmt.Sprintf("run w=%d", j.NNodes())
}
