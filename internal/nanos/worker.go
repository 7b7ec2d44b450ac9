package nanos

import (
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/slurm"
)

// Worker is one rank's view of the DMR runtime: the object application
// code programs against (the role played by the OmpSs pragmas plus the
// DMR API in the paper).
type Worker struct {
	R  *mpi.Rank
	rt *Runtime

	gen       *generation
	startIter int
	initData  any

	handler   *Handler
	pending   []*mpi.Request
	offloaded bool
}

// StartIter returns the iteration this process set resumes from: 0 for
// the original set, or the offloaded task's iteration for spawned sets.
func (w *Worker) StartIter() int { return w.startIter }

// InitData returns the offloaded data block this rank was spawned with,
// or nil for the original process set (MPI_Comm_get_parent == NULL in
// Listing 1: initialize instead).
func (w *Worker) InitData() any { return w.initData }

// Spawned reports whether this rank belongs to a respawned set.
func (w *Worker) Spawned() bool { return w.R.Comm().Parent() != nil }

// Runtime returns the job-wide runtime instance.
func (w *Worker) Runtime() *Runtime { return w.rt }

// Abandoned reports whether this process set belongs to a requeued-away
// incarnation of the job (a node crash killed it back to the queue, or a
// live migration moved it to another machine class).
// Application loops bail out when it turns true: the simulator cannot
// kill their processes, so they unwind themselves, and the runtime voids
// their completion accounting.
func (w *Worker) Abandoned() bool { return w.rt.stale() }

// NoteLostWork charges seconds of redone computation to the job's fault
// accounting (rank 0 calls it once per recovery). No-op for abandoned
// incarnations.
func (w *Worker) NoteLostWork(seconds float64) {
	if w.rt.stale() {
		return
	}
	w.rt.ctl.NoteLostWork(w.rt.job, seconds)
}

// MarkProtected records a completed application checkpoint with the
// controller: a later crash-requeue only loses work back to this point.
// No-op for abandoned incarnations.
func (w *Worker) MarkProtected() {
	if w.rt.stale() {
		return
	}
	w.rt.ctl.MarkProtected(w.rt.job)
}

// SpeedFactor returns the slowest current execution speed across the
// process set's nodes, the factor step loops divide compute time by:
// each node's live DVFS speed — a node the power-cap governor or a
// thermal floor stepped below P0 runs under its class P0 speed, and an
// efficiency-class machine is inherently slower than the reference Xeon
// even at P0. A node that is not computing (a crashed member before the
// recovery collects it) falls back to its class P0 speed.
func (w *Worker) SpeedFactor() float64 {
	acct := w.rt.ctl.Energy()
	return w.R.Comm().MinSpeed(func(n *platform.Node) float64 {
		if s := acct.Speed(n.Index); s > 0 {
			return s
		}
		return n.Power.SpeedAt(0)
	})
}

// NoteStateBytes registers the process set's total checkpointable state
// footprint with the controller — the byte count the migration pass
// prices moves with; a job that never reports one is never a migration
// candidate. Rank 0 calls it once the application data is initialized.
// No-op for abandoned incarnations.
func (w *Worker) NoteStateBytes(total int64) {
	if w.rt.stale() {
		return
	}
	w.rt.ctl.SetStateBytes(w.rt.job, total)
}

// MigrateOrdered reports whether the controller has placed a migration
// order for this job. The call is collective over the process set: rank
// 0 consults the controller and every rank receives the same verdict,
// so the set enters the checkpoint phase in lockstep.
func (w *Worker) MigrateOrdered() bool {
	ordered := false
	if w.R.Rank() == 0 {
		ordered = !w.rt.stale() && w.rt.ctl.MigrationOrdered(w.rt.job)
	}
	return w.R.Bcast(0, ordered, 1).(bool)
}

// MigrateFinish completes a live migration after every rank has written
// its checkpoint shard through the PFS: all ranks acknowledge to the
// management rank (rank 0), which hands the job back to the queue
// pinned to the order's destination class. MigrateRequeue bumps the
// job's incarnation, so this whole process set unwinds as abandoned and
// the restart resumes from the checkpoint it just wrote. After
// MigrateFinish the application must return.
func (w *Worker) MigrateFinish() {
	if w.R.Rank() == 0 {
		for i := 1; i < w.R.Size(); i++ {
			w.R.Recv(mpi.AnySource, AckTag)
		}
		w.R.Proc().Sleep(w.rt.ctl.Cluster().Cfg.RPCLatency)
		if !w.rt.stale() {
			w.rt.ctl.MigrateRequeue(w.rt.job)
		}
	} else {
		w.R.Send(0, AckTag, nil, 0)
	}
}

// checkResult is the verdict rank 0 distributes to the process set.
type checkResult struct {
	action  slurm.Action
	handler *Handler
}

// CheckStatus is dmr_check_status: it asks the RMS (through the runtime)
// whether the job should expand, shrink, or keep its size. The call is
// collective over the process set; rank 0 talks to the RMS and, when an
// action is granted, performs the §V-B protocol and spawns the new
// process set. All ranks receive the same verdict and handler.
func (w *Worker) CheckStatus(req Request) (slurm.Action, *Handler) {
	return w.check(req, w.rt.cfg.Async)
}

// ICheckStatus is dmr_icheck_status: the decision for this reconfiguring
// point was scheduled during the previous step, and a new decision is
// scheduled in the background for the next one.
func (w *Worker) ICheckStatus(req Request) (slurm.Action, *Handler) {
	return w.check(req, true)
}

func (w *Worker) check(req Request, async bool) (slurm.Action, *Handler) {
	var res *checkResult
	if w.R.Rank() == 0 {
		res = w.rt.decideAndPrepare(w, req, async)
	}
	res = w.R.Bcast(0, res, 16).(*checkResult)
	if res.handler != nil {
		w.handler = res.handler
	}
	return res.action, res.handler
}

// decideAndPrepare runs at rank 0: inhibitor gate, scheduling decision,
// and — when an action is granted — the reconfiguration protocol.
func (rt *Runtime) decideAndPrepare(w *Worker, req Request, async bool) *checkResult {
	p := w.R.Proc()
	now := p.Now()
	rt.Stats.Checks++
	if rt.stale() {
		return &checkResult{action: slurm.NoAction}
	}
	if rt.resizing {
		// A previous reconfiguration has not fully landed in the RMS
		// yet (shrink release pending): ignore the call.
		return &checkResult{action: slurm.NoAction}
	}
	// Failure recovery preempts voluntary resizing and is never
	// inhibited: a crash must be dealt with at the first reconfiguring
	// point that sees it.
	if failed := rt.syncFailed(w.R.Comm()); len(failed) > 0 {
		return rt.prepareRecovery(w, failed, req)
	}
	if rt.ctl.MigrationOrdered(rt.job) {
		// A live-migration order is pending: the application picks it up
		// at its next loop head; granting a resize now would race the
		// checkpoint/requeue move.
		return &checkResult{action: slurm.NoAction}
	}
	if rt.cfg.SchedPeriod > 0 && rt.checkedOnce && now-rt.lastCheck < rt.cfg.SchedPeriod {
		rt.Stats.Inhibited++
		return &checkResult{action: slurm.NoAction}
	}
	rt.lastCheck = now
	rt.checkedOnce = true

	var dec slurm.Decision
	if async {
		dec = rt.takeAsync(p, req)
	} else {
		dec = rt.rpcDecide(p, req)
	}

	switch dec.Action {
	case slurm.Expand:
		if dec.NewNodes <= rt.job.NNodes() {
			return &checkResult{action: slurm.NoAction}
		}
		rt.resizing = true
		if !rt.expandDance(p, dec.NewNodes) {
			rt.Stats.ExpandAborts++
			rt.resizing = false
			return &checkResult{action: slurm.NoAction}
		}
		rt.Stats.Expands++
		h := rt.spawnNewSet(w, slurm.Expand, dec.NewNodes, rt.job.Alloc())
		// The RMS state is already consistent (the dance grew the job
		// before the spawn); the data handoff proceeds in parallel.
		rt.resizing = false
		return &checkResult{action: slurm.Expand, handler: h}
	case slurm.Shrink:
		if dec.NewNodes >= rt.job.NNodes() || dec.NewNodes < 1 {
			return &checkResult{action: slurm.NoAction}
		}
		rt.Stats.Shrinks++
		rt.resizing = true
		// The new set lives on the retained head of the allocation; the
		// released tail is freed once every old rank has acknowledged
		// (Taskwait), which also clears the resizing gate.
		h := rt.spawnNewSet(w, slurm.Shrink, dec.NewNodes, rt.job.Alloc()[:dec.NewNodes])
		return &checkResult{action: slurm.Shrink, handler: h}
	}
	return &checkResult{action: slurm.NoAction}
}

// syncFailed drops crash reports that no longer concern the current
// process set (the node was voluntarily released before this check saw
// the report) and returns the ones that do. Rank 0's view at this moment
// is authoritative: the verdict reaches every rank through the check
// broadcast, so a crash racing the lockstep is simply picked up at the
// next reconfiguring point.
func (rt *Runtime) syncFailed(comm *mpi.Comm) []*platform.Node {
	if len(rt.failedNodes) == 0 {
		return nil
	}
	kept := rt.failedNodes[:0]
	for _, n := range rt.failedNodes {
		for _, cn := range comm.Nodes() {
			if cn == n {
				kept = append(kept, n)
				break
			}
		}
	}
	rt.failedNodes = kept
	return rt.failedNodes
}

// prepareRecovery runs at rank 0 when the check finds crashed nodes in
// the current process set: shrink to the survivors when enough remain
// (the controller splices the dead nodes out of the allocation and the
// new set spawns on the survivors' own nodes), otherwise give the job
// back to the queue. In the real system this coordination rides the RMS
// control network; here it rides the check broadcast that already
// synchronizes the set.
func (rt *Runtime) prepareRecovery(w *Worker, failed []*platform.Node, req Request) *checkResult {
	comm := w.R.Comm()
	survivors := make([]int, 0, comm.Size())
	for r := 0; r < comm.Size(); r++ {
		dead := false
		for _, f := range failed {
			if comm.Node(r) == f {
				dead = true
				break
			}
		}
		if !dead {
			survivors = append(survivors, r)
		}
	}
	min := req.Min
	if min < 1 {
		min = 1
	}
	if len(survivors) < min {
		// Too few survivors to carry on. The requeue bumps the job's
		// incarnation, so this whole set (and its verdict) goes stale
		// and unwinds without touching the fresh restart.
		rt.ctl.RequeueFailed(rt.job)
		return &checkResult{action: slurm.NoAction}
	}
	nodes := make([]*platform.Node, len(survivors))
	for i, r := range survivors {
		nodes[i] = comm.Node(r)
	}
	rt.ctl.CollectFailed(rt.job)
	rt.failedNodes = rt.failedNodes[:0]
	rt.Stats.Recoveries++
	h := rt.spawnNewSet(w, slurm.Shrink, len(survivors), nodes)
	h.Recovery = true
	h.Survivors = survivors
	return &checkResult{action: slurm.Shrink, handler: h}
}

// Offload queues one task for new-set rank dest: the OmpSs
// "#pragma omp task inout(data) onto(handler, dest)". bytes models the
// wire size of the block.
func (w *Worker) Offload(dest int, data any, bytes int64, iter int) {
	if w.handler == nil {
		panic("nanos: Offload without a granted reconfiguration handler")
	}
	task := Task{Data: data, Iter: iter, Bytes: bytes}
	w.pending = append(w.pending, w.R.IsendRemote(w.handler.IC, dest, TaskTag, task, bytes))
}

// Taskwait completes the handoff ("#pragma omp taskwait"): it drains this
// rank's offloads and, for a shrink, runs the §V-B2 synchronization — all
// ranks acknowledge to the management rank (rank 0), which then asks the
// RMS to release the vacated nodes. After Taskwait the application must
// return; the old process terminates and execution continues in the new
// communicator.
func (w *Worker) Taskwait() {
	w.R.Waitall(w.pending)
	w.pending = nil
	h := w.handler
	if h != nil && h.Action == slurm.Shrink && !h.Recovery {
		// Recovery shrinks skip the dance: the controller already
		// spliced the dead nodes out when the verdict was prepared, and
		// the dead ranks have nothing to acknowledge with.
		if w.R.Rank() == 0 {
			for i := 1; i < w.R.Size(); i++ {
				w.R.Recv(mpi.AnySource, AckTag)
			}
			w.R.Proc().Sleep(w.rt.ctl.Cluster().Cfg.RPCLatency)
			if !w.rt.stale() {
				w.rt.ctl.ShrinkJob(w.rt.job, h.NewSize)
			}
			w.rt.resizing = false
		} else {
			w.R.Send(0, AckTag, nil, 0)
		}
	}
	w.offloaded = true
}
