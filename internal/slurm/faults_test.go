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

func (s *stubFaults) NextCrash(_ sim.Time, _ string) (sim.Time, bool) {
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
	cfg.Energy = energy.New(cl.K, cl.PowerProfiles())
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
	fs := c.FaultStats()
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
	fs := c.FaultStats()
	if fs.Failures != 1 || fs.Requeues != 1 {
		t.Fatalf("stats %+v", fs)
	}
	if c.FreeNodes() != 2 {
		t.Fatalf("nodes leaked: %d free", c.FreeNodes())
	}
}

// Crash mid-boot: a drained sleeping node boots for maintenance; the
// crash voids bootUntil, so the in-flight bootDone timer misses its
// deadline guard and the node stays failed until repaired — then returns
// to the drain books, and only Resume re-pools it.
func TestFaultCrashMidBootVoidsBootAndDrainHolds(t *testing.T) {
	fm := &stubFaults{crash: []sim.Time{25 * sim.Second}, repair: 100 * sim.Second}
	cl, c := faultController(1, fm, func(cfg *Config) {
		cfg.SleepLadder = []SleepRung{{AfterIdle: 10 * sim.Second}}
	})
	// t=10: the idle node sleeps. t=20: drain wakes it for maintenance
	// (a real boot window). t=25: crash lands mid-boot.
	cl.K.At(20*sim.Second, func() {
		if err := c.DrainNode(0); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	cl.K.RunUntil(26 * sim.Second)
	if got := c.Energy().State(0); got != energy.Failed {
		t.Fatalf("node state %v mid-boot crash, want Failed", got)
	}
	// Past the original boot deadline the stale bootDone must not have
	// resurrected the node.
	cl.K.RunUntil(90 * sim.Second)
	if got := c.Energy().State(0); got != energy.Failed {
		t.Fatalf("node state %v after stale bootDone, want still Failed", got)
	}
	cl.K.RunUntil(130 * sim.Second)
	if got := c.FreeNodes(); got != 0 {
		t.Fatalf("repaired node re-pooled despite drain: %d free", got)
	}
	if err := c.ResumeNode(0); err != nil {
		t.Fatalf("resume: %v", err)
	}
	j := c.Submit(faultSleeper(c, "after", 1, 5*sim.Second))
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
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
	if fs := c.FaultStats(); fs.Failures != 1 {
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
	if fs := c.FaultStats(); fs.Failures != 0 {
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
	fs := c.FaultStats()
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
