package slurm

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// capController builds a controller with accounting, no idle sleep, and
// the given power cap, recording every power sample for cap assertions.
func capController(nodes int, capW float64) (*platform.Cluster, *Controller, *[]float64) {
	cl := testCluster(nodes)
	cfg := DefaultConfig()
	cfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	cfg.PowerCapW = capW
	samples := &[]float64{}
	cfg.Energy.SubscribePowerSamples(func(_ sim.Time, w float64) { *samples = append(*samples, w) })
	return cl, NewController(cl, cfg), samples
}

func assertUnderCap(t *testing.T, samples []float64, capW float64) {
	t.Helper()
	for i, w := range samples {
		if w > capW+1e-6 {
			t.Fatalf("sample %d: draw %.1f W exceeds the %.0f W cap", i, w, capW)
		}
	}
}

// Four 1-node jobs on four nodes under a cap that fits three at P0: the
// governor steps the youngest running job down until the fourth fits,
// and restores it to P0 when the first completion returns headroom.
func TestPowerCapThrottlesYoungestAndRestores(t *testing.T) {
	// DefaultProfile: idle 120 W, P0..P3 = 330/260/200/150 W.
	// Three jobs at P0 + one idle node draw 1110 W; the fourth start
	// projects 1320 W. Throttling job 3 to P2 lands at 1190 W.
	cl, c, samples := capController(4, 1200)
	j1 := c.Submit(sleeperJob(c, "j1", 1, 100*sim.Second))
	j2 := c.Submit(sleeperJob(c, "j2", 1, 300*sim.Second))
	j3 := c.Submit(sleeperJob(c, "j3", 1, 300*sim.Second))
	j4 := c.Submit(sleeperJob(c, "j4", 1, 300*sim.Second))

	cl.K.RunUntil(50 * sim.Second)
	for _, j := range []*Job{j1, j2, j3, j4} {
		if j.State != StateRunning {
			t.Fatalf("%s state %v, want RUNNING (cap should admit all four)", j.Name, j.State)
		}
	}
	if j3.PState() != 2 {
		t.Fatalf("j3 at P%d, want P2 (youngest running job throttled first)", j3.PState())
	}
	if j1.PState() != 0 || j2.PState() != 0 || j4.PState() != 0 {
		t.Fatalf("pstates j1=%d j2=%d j4=%d, want all P0", j1.PState(), j2.PState(), j4.PState())
	}

	// j1's completion at t≈100 frees 210 W: j3 steps back to P0.
	cl.K.RunUntil(150 * sim.Second)
	if j3.PState() != 0 {
		t.Fatalf("j3 still at P%d after headroom returned", j3.PState())
	}
	cl.K.Run()
	assertUnderCap(t, *samples, 1200)

	// j3 was throttled from its start until j1's completion: ~100 s.
	var rec *JobRecord
	for _, r := range c.Accounting() {
		if r.ID == j3.ID {
			r := r
			rec = &r
		}
	}
	if rec == nil {
		t.Fatal("no accounting record for j3")
	}
	if math.Abs(rec.ThrottledSec-100) > 1 {
		t.Fatalf("j3 throttled_s = %.1f, want ≈100", rec.ThrottledSec)
	}
	// Throttled intervals draw less: j3's energy is below an unthrottled
	// 300 s run, j2's matches one.
	prof := energy.DefaultProfile()
	full := 300 * prof.ActiveW(0)
	if got := c.Energy().JobJoules(j2.ID); math.Abs(got-full) > 1 {
		t.Fatalf("j2 energy %.1f J, want %.1f J", got, full)
	}
	wantJ3 := full - 100*(prof.ActiveW(0)-prof.ActiveW(2))
	if got := c.Energy().JobJoules(j3.ID); math.Abs(got-wantJ3) > 1 {
		t.Fatalf("j3 energy %.1f J, want %.1f J (100 s at P2)", got, wantJ3)
	}
}

// Under a cap so tight that even full throttling cannot host two jobs,
// the second start is deferred on watts alone — the nodes are free the
// whole time — until the first job completes.
func TestPowerCapDefersStartOnWatts(t *testing.T) {
	// Two idle nodes draw 240 W. One job at P3 lands at 270 W; a second
	// P3 start would need 300 W. Cap 280 W serializes them.
	cl, c, samples := capController(2, 280)
	j1 := c.Submit(sleeperJob(c, "j1", 1, 100*sim.Second))
	j2 := c.Submit(sleeperJob(c, "j2", 1, 100*sim.Second))
	cl.K.RunUntil(50 * sim.Second)
	if j1.State != StateRunning || j1.PState() != 3 {
		t.Fatalf("j1 state %v P%d, want RUNNING at P3 (deep cap admission)", j1.State, j1.PState())
	}
	if j2.State != StatePending {
		t.Fatalf("j2 state %v, want PENDING: no watt headroom although a node is free", j2.State)
	}
	if c.FreeNodes() != 1 {
		t.Fatalf("%d free nodes, want 1", c.FreeNodes())
	}
	cl.K.Run()
	if j2.State != StateCompleted {
		t.Fatalf("j2 state %v", j2.State)
	}
	if j2.StartTime < j1.EndTime {
		t.Fatalf("j2 started %v before j1 ended %v: cap breached", j2.StartTime, j1.EndTime)
	}
	assertUnderCap(t, *samples, 280)
	// Both jobs ran their whole lives below P0.
	for _, r := range c.Accounting() {
		if math.Abs(r.ThrottledSec-100) > 1 {
			t.Fatalf("job %d throttled_s = %.1f, want ≈100", r.ID, r.ThrottledSec)
		}
	}
}

// Regression: a completing job must not act as a phantom restore victim.
// capRestore runs while nodes are released; if the completed job were
// still visible with its (now idle) alloc, its phantom step-up cost
// would be priced against the cap and block genuinely throttled younger
// jobs from recovering speed.
func TestCompletedJobNotPhantomRestoreVictim(t *testing.T) {
	// Two idle nodes draw 240 W. j1 starts at P0 (450 W ≤ 460). j2's
	// admission throttles j1 to P2 and starts j2 at P1 (200+260+0 idle
	// = 460 W). When j1 completes, j2 must step back to P0 (450 W).
	cl, c, samples := capController(2, 460)
	j1 := c.Submit(sleeperJob(c, "j1", 1, 100*sim.Second))
	j2 := c.Submit(sleeperJob(c, "j2", 1, 300*sim.Second))
	cl.K.RunUntil(50 * sim.Second)
	if j1.PState() != 2 || j2.PState() != 1 {
		t.Fatalf("pstates j1=P%d j2=P%d, want P2/P1", j1.PState(), j2.PState())
	}
	cl.K.RunUntil(150 * sim.Second)
	if j1.State != StateCompleted {
		t.Fatalf("j1 state %v", j1.State)
	}
	if j2.PState() != 0 {
		t.Fatalf("j2 still at P%d after j1 completed: phantom victim blocked the restore", j2.PState())
	}
	cl.K.Run()
	assertUnderCap(t, *samples, 460)
}

// The backfill reservation prices a throttled job's release at its
// stretched time limit: the coupled step loop runs below P0 speed, so
// assuming a P0-speed release would place the shadow time too early and
// let backfill delay the reservation holder.
func TestReservationPricesThrottledJobsStretched(t *testing.T) {
	// Three of four nodes at P0 would draw 1110 W; cap 1000 W admits
	// the job at P1 (900 W), speed 0.8.
	cl, c, _ := capController(4, 1000)
	j1 := c.Submit(sleeperJob(c, "j1", 3, 95*sim.Second)) // TimeLimit 96 s
	head := c.Submit(sleeperJob(c, "head", 4, 10*sim.Second))
	cl.K.RunUntil(50 * sim.Second)
	if j1.PState() != 1 {
		t.Fatalf("j1 at P%d, want P1", j1.PState())
	}
	if head.State != StatePending {
		t.Fatalf("head state %v, want PENDING", head.State)
	}
	shadow, extra := c.reservation(head)
	want := j1.StartTime + sim.Time(float64(96*sim.Second)/0.8)
	if shadow != want {
		t.Fatalf("shadow %v, want %v (time limit stretched by 1/0.8)", shadow, want)
	}
	if extra != 0 {
		t.Fatalf("extra %d, want 0", extra)
	}
}

// A moldable job trades nodes for watts: when its maximum size cannot
// be admitted even at the deepest P-state, the start shrinks toward
// MinNodes instead of blocking on a completion it does not need.
func TestMoldableShrinksToFitCap(t *testing.T) {
	// Four idle nodes draw 480 W. Even at P3 (150 W) four active nodes
	// need 600 W and three 570 W; two fit at 540 W under a 550 W cap.
	cl, c, samples := capController(4, 550)
	j := &Job{Name: "mold", ReqNodes: 4, MinNodes: 1, MaxNodes: 4, TimeLimit: sim.Hour}
	j.Launch = func(j *Job, _ []*platform.Node) {
		cl.K.Spawn("mold", func(p *sim.Proc) {
			p.Sleep(100 * sim.Second)
			c.JobComplete(j)
		})
	}
	c.Submit(j)
	cl.K.RunUntil(10 * sim.Second)
	if j.State != StateRunning {
		t.Fatalf("state %v, want RUNNING (watt-shrunk start)", j.State)
	}
	if j.NNodes() != 2 || j.PState() != 3 {
		t.Fatalf("started with %d nodes at P%d, want 2 at P3", j.NNodes(), j.PState())
	}
	cl.K.Run()
	assertUnderCap(t, *samples, 550)
}

// Without a cap nothing throttles and the accounting column stays zero.
func TestNoCapNoThrottle(t *testing.T) {
	cl, c, samples := capController(4, 0)
	c.Submit(sleeperJob(c, "a", 4, 100*sim.Second))
	c.Submit(sleeperJob(c, "b", 4, 100*sim.Second))
	cl.K.Run()
	for _, r := range c.Accounting() {
		if r.ThrottledSec != 0 {
			t.Fatalf("job %d throttled_s = %.1f without a cap", r.ID, r.ThrottledSec)
		}
	}
	peak := 0.0
	for _, w := range *samples {
		if w > peak {
			peak = w
		}
	}
	prof := energy.DefaultProfile()
	if want := 4 * prof.ActiveW(0); math.Abs(peak-want) > 1e-6 {
		t.Fatalf("uncapped peak %.1f W, want %.1f W", peak, want)
	}
}

// The backfill pass never throttles running work: an opportunistic job
// that does not fit under the cap at P0 simply waits.
func TestBackfillDoesNotThrottleForOpportunisticJobs(t *testing.T) {
	// Cap fits two 1-node jobs at P0 (120*2 idle + 330*2 = 900 ≤ 950)
	// but not three (330*3 + 120 = 1110).
	cl, c, _ := capController(4, 950)
	a := c.Submit(sleeperJob(c, "a", 1, 100*sim.Second))
	b := c.Submit(sleeperJob(c, "b", 1, 100*sim.Second))
	// Head of the queue: wants 4 nodes, cap-blocked and node-blocked —
	// the backfill reservation holder.
	head := c.Submit(sleeperJob(c, "head", 4, 10*sim.Second))
	// Backfill candidate: 1 node, short. Fits the node hole but not the
	// watt budget; it must not throttle a or b to squeeze in.
	cand := c.Submit(sleeperJob(c, "cand", 1, 5*sim.Second))
	cl.K.RunUntil(50 * sim.Second)
	if a.PState() != 0 || b.PState() != 0 {
		t.Fatalf("running jobs throttled for a backfill candidate: a=P%d b=P%d", a.PState(), b.PState())
	}
	if cand.State != StatePending {
		t.Fatalf("candidate state %v, want PENDING under the cap", cand.State)
	}
	cl.K.Run()
	if head.State != StateCompleted || cand.State != StateCompleted {
		t.Fatal("queue did not drain")
	}
}
