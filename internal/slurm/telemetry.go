package slurm

import (
	"fmt"
	"sort"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Telemetry instrumentation. Every hook hangs off Controller.tel, which
// is nil unless Config.Telemetry attaches a sink: the disabled path is
// one nil check per site and allocates nothing, so the byte-determinism
// goldens are untouched. With a sink attached, everything recorded
// derives from virtual time and controller state.
//
// Chrome trace track layout (pid/tid):
//
//	pid 1 "scheduler"  tid 1: one instant per scheduling pass
//	                   tid 2: one span per DMR decision round trip
//	                   counter series: queue_depth, allocated_nodes
//	pid 2 "jobs"       tid = job ID: "pend" span from submit to start,
//	                   "run w=N [pK]" spans re-opened on every resize or
//	                   governor P-state move
//	pid 3 "nodes"      tid = node index: occupancy spans "jN [pK]",
//	                   "held jN", "SK" (sleep rung), "drained"; gaps are
//	                   powered-on idle
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

// telState carries the controller's pre-registered instrument handles
// and the open-span bookkeeping of the tracer.
type telState struct {
	sink *telemetry.Sink

	passes, mainStarts, bfStarts  *telemetry.Counter
	bfScanned, bfSkipped          *telemetry.Counter
	pickHits, pickMisses          *telemetry.Counter
	sleeps, wakes                 *telemetry.Counter
	capThrottles, capRestores     *telemetry.Counter
	capAdmitP0, capAdmitDeep      *telemetry.Counter
	capDeferred                   *telemetry.Counter
	thermThrottles, thermRestores *telemetry.Counter
	dmrChecks, dmrExpand          *telemetry.Counter
	dmrShrink, dmrNoAction        *telemetry.Counter
	eventsEmitted, jobsCompleted  *telemetry.Counter
	queueDepth, allocatedNodes    *telemetry.Gauge
	freepoolOps                   *telemetry.Gauge
	waitHist, stretchHist         *telemetry.Histogram

	// sleepRung counts descents per S-state, created at first descent.
	sleepRung []*telemetry.Counter

	// Elastic-fleet instruments, registered only when the elastic
	// capacity controller is configured: a fixed fleet must export a
	// byte-identical registry snapshot.
	fleetNodes           *telemetry.Gauge
	boots, decommissions *telemetry.Counter

	// Fault instruments, registered only when a fault model is attached:
	// a fault-free run must export a byte-identical registry snapshot.
	failures, requeues *telemetry.Counter
	bootRetries        *telemetry.Counter
	lostWork           *telemetry.Histogram

	// Migration instruments, registered only when live migration is
	// configured: a migration-free run must export a byte-identical
	// registry snapshot.
	migrateOrders, migrations *telemetry.Counter
	migrateCost               *telemetry.Histogram

	// Open-span state: the label each node/job track currently carries
	// and since when. An empty label is a gap (idle node, finished job).
	nodeLabel []string
	nodeSince []sim.Time
	jobLabel  map[int]string
	jobSince  map[int]sim.Time
}

// newTelState registers every instrument and names the trace tracks.
func newTelState(c *Controller, sink *telemetry.Sink) *telState {
	reg := sink.Reg
	t := &telState{
		sink:           sink,
		passes:         reg.Counter("sched_passes_total"),
		mainStarts:     reg.Counter("sched_main_starts_total"),
		bfStarts:       reg.Counter("sched_backfill_starts_total"),
		bfScanned:      reg.Counter("sched_backfill_scanned_total"),
		bfSkipped:      reg.Counter("sched_backfill_skipped_total"),
		pickHits:       reg.Counter("sched_pick_cache_hits_total"),
		pickMisses:     reg.Counter("sched_pick_cache_misses_total"),
		sleeps:         reg.Counter("node_sleep_total"),
		wakes:          reg.Counter("node_wake_total"),
		capThrottles:   reg.Counter("cap_throttles_total"),
		capRestores:    reg.Counter("cap_restores_total"),
		capAdmitP0:     reg.Counter("cap_admit_p0_total"),
		capAdmitDeep:   reg.Counter("cap_admit_deep_total"),
		capDeferred:    reg.Counter("cap_deferred_total"),
		thermThrottles: reg.Counter("thermal_throttles_total"),
		thermRestores:  reg.Counter("thermal_restores_total"),
		dmrChecks:      reg.Counter("dmr_checks_total"),
		dmrExpand:      reg.Counter("dmr_expand_total"),
		dmrShrink:      reg.Counter("dmr_shrink_total"),
		dmrNoAction:    reg.Counter("dmr_noaction_total"),
		eventsEmitted:  reg.Counter("events_emitted_total"),
		jobsCompleted:  reg.Counter("jobs_completed_total"),
		queueDepth:     reg.Gauge("sched_queue_depth"),
		allocatedNodes: reg.Gauge("sched_allocated_nodes"),
		freepoolOps:    reg.Gauge("sched_freepool_ops"),
		waitHist:       reg.Histogram("job_wait_seconds", waitBuckets),
		stretchHist:    reg.Histogram("job_stretch", stretchBuckets),
		nodeLabel:      make([]string, len(c.cluster.Nodes)),
		nodeSince:      make([]sim.Time, len(c.cluster.Nodes)),
		jobLabel:       make(map[int]string),
		jobSince:       make(map[int]sim.Time),
	}
	if c.cfg.Elastic != nil {
		t.fleetNodes = reg.Gauge("elastic_fleet_nodes")
		t.boots = reg.Counter("elastic_boots_total")
		t.decommissions = reg.Counter("elastic_decommissions_total")
	}
	if c.cfg.Faults != nil {
		t.failures = reg.Counter("fault_failures_total")
		t.requeues = reg.Counter("fault_requeues_total")
		t.bootRetries = reg.Counter("fault_boot_retries_total")
		t.lostWork = reg.Histogram("fault_lost_work_seconds", lostWorkBuckets)
	}
	if c.cfg.Migration != nil {
		t.migrateOrders = reg.Counter("migration_orders_total")
		t.migrations = reg.Counter("migrations_total")
		t.migrateCost = reg.Histogram("migration_cost_seconds", migrateCostBuckets)
	}
	tr := sink.Trace
	tr.MetaProcess(tracePidSched, "scheduler")
	tr.MetaProcess(tracePidJobs, "jobs")
	tr.MetaProcess(tracePidNodes, "nodes")
	tr.MetaThread(tracePidSched, traceTidPasses, "passes")
	tr.MetaThread(tracePidSched, traceTidDMR, "dmr decisions")
	for _, n := range c.cluster.Nodes {
		tr.MetaThread(tracePidNodes, n.Index, n.Name)
	}
	return t
}

// sleepCounter returns the per-rung descent counter, creating shallower
// rungs as needed (export order is sorted by name regardless).
func (t *telState) sleepCounter(rung int) *telemetry.Counter {
	for len(t.sleepRung) <= rung {
		t.sleepRung = append(t.sleepRung,
			t.sink.Reg.Counter(fmt.Sprintf("node_sleep_s%d_total", len(t.sleepRung))))
	}
	return t.sleepRung[rung]
}

// nodeSpan closes node idx's open span (if its label changes) and opens
// a new one; an empty label leaves a gap. Zero-duration intermediate
// states are collapsed: at one instant only the last label survives.
func (t *telState) nodeSpan(now sim.Time, idx int, label string) {
	if t.nodeLabel[idx] == label {
		return
	}
	if old := t.nodeLabel[idx]; old != "" && now > t.nodeSince[idx] {
		t.sink.Trace.Span(tracePidNodes, idx, "node", old, t.nodeSince[idx], now)
	}
	t.nodeLabel[idx] = label
	t.nodeSince[idx] = now
}

// jobSpan is nodeSpan for job tracks (tid = job ID).
func (t *telState) jobSpan(now sim.Time, id int, label string) {
	if t.jobLabel[id] == label {
		return
	}
	if old := t.jobLabel[id]; old != "" && now > t.jobSince[id] {
		t.sink.Trace.Span(tracePidJobs, id, "job", old, t.jobSince[id], now)
	}
	if label == "" {
		delete(t.jobLabel, id)
		delete(t.jobSince, id)
		return
	}
	t.jobLabel[id] = label
	t.jobSince[id] = now
}

// jobNodeLabel is the occupancy label a job stamps on its nodes.
func jobNodeLabel(j *Job) string {
	if j.pstate > 0 {
		return fmt.Sprintf("j%d p%d", j.ID, j.pstate)
	}
	return fmt.Sprintf("j%d", j.ID)
}

// runLabel is the job-track label of a running interval at its current
// width and governor P-state.
func runLabel(j *Job) string {
	if j.pstate > 0 {
		return fmt.Sprintf("run w=%d p%d", len(j.alloc), j.pstate)
	}
	return fmt.Sprintf("run w=%d", len(j.alloc))
}

// telSubmit opens the pending span. Resizer jobs are dance-internal and
// get no job track.
func (c *Controller) telSubmit(j *Job) {
	if j.Resizer {
		return
	}
	c.tel.sink.Trace.MetaThread(tracePidJobs, j.ID, j.Name)
	c.tel.jobSpan(c.k.Now(), j.ID, "pend")
}

// telStart closes the pending span, opens the first run span and
// observes the wait histogram.
func (c *Controller) telStart(j *Job) {
	if j.Resizer {
		return
	}
	c.tel.waitHist.Observe(j.WaitTime().Seconds())
	c.tel.jobSpan(c.k.Now(), j.ID, runLabel(j))
}

// telComplete closes the run span and observes the stretch histogram
// (completion over execution time — 1 means no queueing penalty).
func (c *Controller) telComplete(j *Job) {
	c.tel.jobsCompleted.Inc()
	if j.Resizer {
		return
	}
	if e := j.ExecTime(); e > 0 {
		c.tel.stretchHist.Observe(float64(j.CompletionTime()) / float64(e))
	}
	c.tel.jobSpan(c.k.Now(), j.ID, "")
}

// telResize re-opens the run span at the job's new width/P-state.
func (c *Controller) telResize(j *Job) {
	if j.Resizer {
		return
	}
	c.tel.jobSpan(c.k.Now(), j.ID, runLabel(j))
}

// telSample publishes the allocation snapshot as gauges and counter
// series.
func (c *Controller) telSample(t sim.Time, alloc int) {
	c.tel.queueDepth.Set(float64(len(c.pending)))
	c.tel.allocatedNodes.Set(float64(alloc))
	c.tel.sink.Trace.Counter(tracePidSched, "queue_depth", t,
		telemetry.Arg{Key: "pending", Val: len(c.pending)})
	c.tel.sink.Trace.Counter(tracePidSched, "allocated_nodes", t,
		telemetry.Arg{Key: "nodes", Val: alloc})
}

// telSleep records one S-state descent of a free node.
func (c *Controller) telSleep(n *platform.Node, sstate int) {
	c.tel.sleeps.Inc()
	c.tel.sleepCounter(sstate).Inc()
	c.tel.nodeSpan(c.k.Now(), n.Index, fmt.Sprintf("S%d", sstate))
}

// telThermal records a thermal DVFS step and relabels the node's
// occupancy span with the new floor.
func (c *Controller) telThermal(node, owner int, throttled bool, floor int) {
	if throttled {
		c.tel.thermThrottles.Inc()
	} else {
		c.tel.thermRestores.Inc()
	}
	if owner <= 0 {
		return
	}
	label := fmt.Sprintf("j%d", owner)
	if j := c.running[owner]; j != nil {
		label = jobNodeLabel(j)
	}
	if throttled {
		label = fmt.Sprintf("%s t%d", label, floor)
	}
	c.tel.nodeSpan(c.k.Now(), node, label)
}

// telReconfig counts one DMR decision by verdict.
func (c *Controller) telReconfig(d Decision) {
	c.tel.dmrChecks.Inc()
	switch d.Action {
	case Expand:
		c.tel.dmrExpand.Inc()
	case Shrink:
		c.tel.dmrShrink.Inc()
	default:
		c.tel.dmrNoAction.Inc()
	}
}

// FlushTelemetry closes every open trace span at the current virtual
// time and publishes the end-of-run gauges. Call it once the simulation
// has drained (core.System.Run does); idempotent — a second flush at the
// same instant finds no open spans.
func (c *Controller) FlushTelemetry() {
	if c.tel == nil {
		return
	}
	now := c.k.Now()
	for idx := range c.tel.nodeLabel {
		c.tel.nodeSpan(now, idx, "")
	}
	ids := make([]int, 0, len(c.tel.jobLabel))
	for id := range c.tel.jobLabel {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c.tel.jobSpan(now, id, "")
	}
	c.tel.freepoolOps.Set(float64(c.pool.ops))
	c.tel.queueDepth.Set(float64(len(c.pending)))
	c.tel.allocatedNodes.Set(float64(c.AllocatedNodes()))
}
