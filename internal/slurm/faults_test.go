package slurm

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// stubFaults is a scripted FaultModel: NextCrash returns the queued
// delays in consultation order (node index order at init, event order
// afterwards); 0 means "this life never crashes". Boot verdicts replay
// the boots slice and then succeed.
type stubFaults struct {
	crash  []sim.Time
	i      int
	repair sim.Time
	boots  []bool
	bi     int
	retry  sim.Time
}

func (s *stubFaults) NextCrash(sim.Time) (sim.Time, bool) {
	if s.i >= len(s.crash) {
		return 0, false
	}
	d := s.crash[s.i]
	s.i++
	return d, d > 0
}

func (s *stubFaults) RepairTime() sim.Time {
	if s.repair <= 0 {
		return sim.Second
	}
	return s.repair
}

func (s *stubFaults) BootFails() bool {
	s.bi++
	if s.bi > len(s.boots) {
		return false
	}
	return s.boots[s.bi-1]
}

func (s *stubFaults) BootRetry(int) sim.Time {
	if s.retry <= 0 {
		return sim.Second
	}
	return s.retry
}

// faultController builds an energy-accounted controller with a scripted
// fault model.
func faultController(nodes int, fm FaultModel, mod func(*Config)) (*platform.Cluster, *Controller) {
	cl := testCluster(nodes)
	cfg := DefaultConfig()
	cfg.Faults = fm
	if mod != nil {
		mod(&cfg)
	}
	return cl, NewController(cl, cfg)
}

// faultSleeper is sleeperJob with the incarnation guard every launch
// closure needs under crash-requeue: a requeued-away incarnation must
// not complete the job's fresh restart.
func faultSleeper(c *Controller, name string, nodes int, d sim.Time) *Job {
	j := &Job{Name: name, ReqNodes: nodes, TimeLimit: 20 * d}
	j.Launch = func(j *Job, _ []*platform.Node) {
		rq := j.Requeues
		c.Kernel().Spawn(name, func(p *sim.Proc) {
			p.Sleep(d)
			if j.Requeues != rq || j.State != StateRunning {
				return
			}
			c.JobComplete(j)
		})
	}
	return j
}

// Crash on an idle pooled node: it leaves the pool, repairs offline, and
// re-pools — after which it serves jobs again.
func TestFaultCrashIdleNodeRepairsAndRepools(t *testing.T) {
	fm := &stubFaults{crash: []sim.Time{0, 10 * sim.Second}, repair: 20 * sim.Second}
	cl, c := faultController(2, fm, nil)
	cl.K.RunUntil(15 * sim.Second)
	if got := c.FreeNodes(); got != 1 {
		t.Fatalf("free nodes %d during failure, want 1", got)
	}
	if got := c.Energy().State(1); got != energy.Failed {
		t.Fatalf("node 1 state %v, want Failed", got)
	}
	if got := c.AllocatedNodes(); got != 0 {
		t.Fatalf("allocated %d, want 0", got)
	}
	cl.K.RunUntil(31 * sim.Second)
	if got := c.FreeNodes(); got != 2 {
		t.Fatalf("free nodes %d after repair, want 2", got)
	}
	j := c.Submit(faultSleeper(c, "wide", 2, 10*sim.Second))
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	fs := c.Stats()
	if fs.Failures != 1 || fs.Requeues != 0 || fs.LostWorkS != 0 {
		t.Fatalf("stats %+v", fs)
	}
}

// Crash on a running rigid job's node: the job is killed back to the
// queue inside the crash event, loses the work since its start, and
// restarts once the node pool can serve it again.
func TestFaultCrashRequeuesRigidJob(t *testing.T) {
	fm := &stubFaults{crash: []sim.Time{10 * sim.Second}, repair: 5 * sim.Second}
	cl, c := faultController(2, fm, nil)
	j := c.Submit(faultSleeper(c, "rigid", 2, 30*sim.Second))
	cl.K.RunUntil(12 * sim.Second)
	if j.State != StatePending {
		t.Fatalf("job state %v after crash, want Pending", j.State)
	}
	if j.Requeues != 1 {
		t.Fatalf("requeues %d", j.Requeues)
	}
	if j.LostWorkS < 9 || j.LostWorkS > 11 {
		t.Fatalf("lost work %.1f s, want ≈10", j.LostWorkS)
	}
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	// Restart waits for the repair (~15 s) and then runs the full 30 s.
	if end := j.EndTime; end < 45*sim.Second {
		t.Fatalf("end %v, want ≥ 45 s (repair + full rerun)", end)
	}
	fs := c.Stats()
	if fs.Failures != 1 || fs.Requeues != 1 {
		t.Fatalf("stats %+v", fs)
	}
	if c.FreeNodes() != 2 {
		t.Fatalf("nodes leaked: %d free", c.FreeNodes())
	}
}

// Crash inside the wake window: the job starts on a sleeping node, the
// node dies before the wake completes, and the requeued job restarts on
// the other node. The first start's delayed launch must not fire into
// the restarted incarnation (it used to, and the job then completed
// twice).
func TestFaultCrashInWakeWindowLaunchesOncePerIncarnation(t *testing.T) {
	// Init draws: node 0 crashes at t=35, node 1 never.
	fm := &stubFaults{crash: []sim.Time{35 * sim.Second, 0}}
	cl, c := faultController(2, fm, func(cfg *Config) {
		cfg.SleepLadder = []SleepRung{{AfterIdle: 10 * sim.Second, State: 1}} // S1: 30 s wake
	})
	launches := map[int]int{}
	j := faultSleeper(c, "woken", 1, 10*sim.Second)
	launch := j.Launch
	j.Launch = func(j *Job, nodes []*platform.Node) {
		launches[j.Incarnation]++
		if n := launches[j.Incarnation]; n > 1 {
			t.Errorf("incarnation %d launched %d times", j.Incarnation, n)
			return
		}
		launch(j, nodes)
	}
	cl.K.At(30*sim.Second, func() { c.Submit(j) })
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if j.Requeues != 1 || launches[0] > 1 || launches[1] != 1 {
		t.Fatalf("requeues %d, launches per incarnation %v", j.Requeues, launches)
	}
}

// A failure hook belongs to the incarnation whose launch registered it.
// A requeued job restarts onto a sleeping node, and that node crashes
// inside the wake window, before the restart's launch registers a hook
// of its own: the controller requeues on the spot instead of notifying
// the previous incarnation's runtime, which never heard of the node.
func TestFaultCrashInRestartWakeWindowSkipsStaleHook(t *testing.T) {
	// Init draws: node 0 crashes at t=70, node 1 at t=80.
	fm := &stubFaults{crash: []sim.Time{70 * sim.Second, 80 * sim.Second}}
	cl, c := faultController(2, fm, func(cfg *Config) {
		cfg.SleepLadder = []SleepRung{{AfterIdle: 10 * sim.Second, State: 1}} // S1: 30 s wake
	})
	stale := map[int]int{} // failure-hook calls by a superseded incarnation
	j := faultSleeper(c, "restarted", 1, 100*sim.Second)
	launch := j.Launch
	j.Launch = func(j *Job, nodes []*platform.Node) {
		inc := j.Incarnation
		j.OnNodeFail = func(j *Job, _ *platform.Node) {
			if j.Incarnation != inc {
				stale[inc]++
				return
			}
			c.RequeueFailed(j)
		}
		launch(j, nodes)
	}
	// t=30: the job wakes node 0 and launches at t≈60. t=70: node 0
	// crashes, the live hook requeues the job, and the restart wakes
	// node 1 (launch due at t≈100); the crash at t=80 lands in that
	// wake window.
	cl.K.At(30*sim.Second, func() { c.Submit(j) })
	cl.K.Run()
	if len(stale) != 0 {
		t.Fatalf("stale failure hooks called %v", stale)
	}
	if j.Requeues != 2 || j.State != StateCompleted {
		t.Fatalf("requeues %d, state %v; want 2 requeues and completion", j.Requeues, j.State)
	}
}

// Crash mid-boot: an elastic provision boots a powered-off node for a
// blocked wide job; the crash voids bootUntil, so the in-flight bootDone
// timer misses its deadline guard and the node stays failed until
// repaired — then it re-pools and serves the wide job.
func TestFaultCrashMidBootVoidsBoot(t *testing.T) {
	// Init draws: node 0 never crashes, node 1 at t=40.
	fm := &stubFaults{crash: []sim.Time{0, 40 * sim.Second}, repair: 300 * sim.Second}
	cl, c := faultController(2, fm, func(cfg *Config) {
		cfg.Elastic = &ElasticConfig{Min: 1, Interval: 10 * sim.Second}
	})
	// The long job holds node 0, so the wide job's demand provisions
	// node 1 (powered off: the fleet opens at Min) and its boot runs on
	// free hardware.
	long := c.Submit(faultSleeper(c, "long", 1, 300*sim.Second))
	wide := c.Submit(faultSleeper(c, "wide", 2, 5*sim.Second))
	cl.K.RunUntil(39 * sim.Second)
	if got := c.Energy().State(1); got != energy.Booting {
		t.Fatalf("node 1 state %v at t=39, want Booting", got)
	}
	until := c.bootUntil[1]
	cl.K.RunUntil(41 * sim.Second)
	if got := c.Energy().State(1); got != energy.Failed {
		t.Fatalf("node state %v mid-boot crash, want Failed", got)
	}
	// Past the original boot deadline the stale bootDone must not have
	// resurrected the node.
	cl.K.RunUntil(until + sim.Second)
	if got := c.Energy().State(1); got != energy.Failed {
		t.Fatalf("node state %v after stale bootDone, want still Failed", got)
	}
	cl.K.Run()
	if long.State != StateCompleted || wide.State != StateCompleted {
		t.Fatalf("job states %v / %v", long.State, wide.State)
	}
	if fs := c.Stats(); fs.Failures != 1 || fs.BootFails != 0 {
		t.Fatalf("stats %+v", fs)
	}
}

// Crash on a sleeping node: the generation bump voids the ladder's
// deeper-rung timer, the repair returns the node idle, and it serves
// jobs again.
func TestFaultCrashSleepingNodeVoidsLadder(t *testing.T) {
	fm := &stubFaults{crash: []sim.Time{50 * sim.Second}, repair: 30 * sim.Second}
	cl, c := faultController(1, fm, func(cfg *Config) {
		cfg.SleepLadder = []SleepRung{
			{AfterIdle: 10 * sim.Second, State: 0},
			{AfterIdle: 120 * sim.Second, State: 1},
		}
	})
	cl.K.RunUntil(49 * sim.Second)
	if got := c.Energy().State(0); got != energy.Sleeping {
		t.Fatalf("node state %v before crash, want Sleeping", got)
	}
	cl.K.RunUntil(51 * sim.Second)
	if got := c.Energy().State(0); got != energy.Failed {
		t.Fatalf("node state %v after crash, want Failed", got)
	}
	// The deeper rung would fire at t=130; the crash (and repair at 80)
	// must have voided it — the node is back in service instead.
	cl.K.RunUntil(135 * sim.Second)
	if got := c.FreeNodes(); got != 1 {
		t.Fatalf("free nodes %d after repair, want 1", got)
	}
	j := c.Submit(faultSleeper(c, "wake", 1, 5*sim.Second))
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if fs := c.Stats(); fs.Failures != 1 {
		t.Fatalf("stats %+v", fs)
	}
}

// Crash on powered-off hardware is a no-op that re-arms the chain: a
// decommissioned node has nothing to crash.
func TestFaultCrashOfflineNodeRearms(t *testing.T) {
	fm := &stubFaults{
		// init draws: node 0 never, node 1 at t=5; the offline re-arm at
		// t=5 draws +20 s; the second offline landing ends the chain.
		crash:  []sim.Time{0, 5 * sim.Second, 20 * sim.Second},
		repair: sim.Second,
	}
	cl, c := faultController(2, fm, func(cfg *Config) {
		cfg.Elastic = &ElasticConfig{Min: 1, Interval: 10 * sim.Second}
	})
	cl.K.Run()
	if fs := c.Stats(); fs.Failures != 0 {
		t.Fatalf("offline crash counted: %+v", fs)
	}
	if fm.i != 3 {
		t.Fatalf("crash chain consulted %d draws, want 3 (init ×2 + re-arm)", fm.i)
	}
}

// A repair completing while a job still holds the dead node parks, and
// the release path finishes it: the node only re-pools once the job lets
// go.
func TestFaultRepairParksUntilRelease(t *testing.T) {
	fm := &stubFaults{crash: []sim.Time{10 * sim.Second}, repair: 5 * sim.Second}
	cl, c := faultController(1, fm, nil)
	j := &Job{Name: "holder", ReqNodes: 1, TimeLimit: 600 * sim.Second}
	// A failure handler that does nothing: the job keeps running on the
	// dead node (the malleable runtime defers recovery to its next
	// synchronization point; here that point never comes).
	j.OnNodeFail = func(*Job, *platform.Node) {}
	j.Launch = func(j *Job, _ []*platform.Node) {
		c.Kernel().Spawn(j.Name, func(p *sim.Proc) {
			p.Sleep(30 * sim.Second)
			c.JobComplete(j)
		})
	}
	c.Submit(j)
	cl.K.RunUntil(20 * sim.Second)
	if !c.faults.repairParked[0] {
		t.Fatal("repair did not park while the job held the node")
	}
	if !c.faults.failed[0] {
		t.Fatal("node unfailed while the repair is parked")
	}
	if got := c.FreeNodes(); got != 0 {
		t.Fatalf("free nodes %d while parked, want 0", got)
	}
	if got := c.AllocatedNodes(); got != 1 {
		t.Fatalf("allocated %d while the job holds its dead node, want 1", got)
	}
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if got := c.FreeNodes(); got != 1 {
		t.Fatalf("free nodes %d after release, want 1", got)
	}
	if c.faults.repairParked[0] || c.faults.failed[0] {
		t.Fatal("parked repair not finished on release")
	}
}

// Shrink-to-survive's controller half: CollectFailed splices the dead
// node out of the running job, finishes the repair that parked while the
// job held it, and the allocated count drops by the dead node alone.
func TestFaultCollectFailedSplicesDeadNodes(t *testing.T) {
	// Init draws: node 1 crashes at t=10; its repair completes at t=15,
	// while the job still holds it.
	fm := &stubFaults{crash: []sim.Time{0, 10 * sim.Second, 0}, repair: 5 * sim.Second}
	cl, c := faultController(3, fm, nil)
	j := faultSleeper(c, "survivor", 3, 30*sim.Second)
	j.OnNodeFail = func(*Job, *platform.Node) {} // recovery runs at t=20 below
	c.Submit(j)
	cl.K.RunUntil(20 * sim.Second)
	if !c.faults.repairParked[1] {
		t.Fatal("repair did not park while the job held the node")
	}
	if got := c.AllocatedNodes(); got != 3 {
		t.Fatalf("allocated %d while the job holds its dead node, want 3", got)
	}
	kept := c.CollectFailed(j)
	if len(kept) != 2 || kept[0].Index != 0 || kept[1].Index != 2 {
		t.Fatalf("survivors %v, want nodes 0 and 2", kept)
	}
	if got := c.AllocatedNodes(); got != 2 {
		t.Fatalf("allocated %d after the splice, want 2", got)
	}
	if got := c.FreeNodes(); got != 1 || c.faults.failed[1] {
		t.Fatalf("free %d, node 1 failed=%v: the parked repair must finish on the splice", got, c.faults.failed[1])
	}
	cl.K.Run()
	if j.State != StateCompleted || c.AllocatedNodes() != 0 || c.FreeNodes() != 3 {
		t.Fatalf("job %v, allocated %d, free %d after the run", j.State, c.AllocatedNodes(), c.FreeNodes())
	}
	if fs := c.Stats(); fs.Shrinks != 1 || fs.Failures != 1 {
		t.Fatalf("stats %+v", fs)
	}
}

// Elastic boot failures: the provision boot for a blocked wide job lands
// on still-free hardware and draws the failure verdict; strikes
// accumulate through the backoff gate, the unhealthy threshold sends the
// node to repair, and the post-repair boot succeeds — the wide job
// eventually runs. (A booting node claimed by a job mid-boot never
// draws: only boots landing free can fail, so the long job outlasts the
// post-repair boot.)
func TestFaultBootFailureStrikesToUnhealthy(t *testing.T) {
	fm := &stubFaults{
		boots:  []bool{true, true, true}, // maxStrikes failures in a row
		retry:  30 * sim.Second,
		repair: 50 * sim.Second,
	}
	cl, c := faultController(2, fm, func(cfg *Config) {
		cfg.Elastic = &ElasticConfig{Min: 1, Interval: 10 * sim.Second}
	})
	if got := c.Energy().State(1); got != energy.Off {
		t.Fatalf("node 1 state %v at start, want Off (fleet opens at Min)", got)
	}
	long := c.Submit(faultSleeper(c, "long", 1, 900*sim.Second))
	wide := c.Submit(faultSleeper(c, "wide", 2, 5*sim.Second))
	cl.K.Run()
	if long.State != StateCompleted || wide.State != StateCompleted {
		t.Fatalf("job states %v / %v", long.State, wide.State)
	}
	fs := c.Stats()
	if fs.BootFails != maxStrikes {
		t.Fatalf("boot failures %d, want %d", fs.BootFails, maxStrikes)
	}
	if fm.bi != maxStrikes+1 {
		t.Fatalf("boot verdicts consulted %d, want %d (the failures + the success)", fm.bi, maxStrikes+1)
	}
	if c.faults.unhealthy[1] || c.faults.strikes[1] != 0 {
		t.Fatalf("strike record not cleared: unhealthy=%v strikes=%d",
			c.faults.unhealthy[1], c.faults.strikes[1])
	}
}
