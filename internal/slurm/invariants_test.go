package slurm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The invariant-fuzzing harness: randomized workloads (widths, runtimes,
// arrivals, class demands, moldable ranges, mid-run shrinks, a holder)
// executed one kernel event at a time (sim.Kernel.Step), with the whole
// power/scheduling state machine checked between every pair of events.
// The point is not any single scenario but the cross product: every
// config axis of the energy stack — accounting, power capping,
// class-aware placement, thermal DVFS, the S-state ladder — composed
// with every other, under workloads nobody hand-picked.

type invConfig struct {
	name       string
	powercap   bool
	classaware bool
	thermal    bool
	ladder     bool
	elastic    bool
	faults     bool
	migration  bool
}

var invConfigs = []invConfig{
	{name: "energy"},
	{name: "powercap", powercap: true},
	{name: "classaware", classaware: true},
	{name: "thermal", thermal: true},
	{name: "ladder", ladder: true},
	{name: "elastic", elastic: true},
	{name: "elastic+ladder", elastic: true, ladder: true},
	{name: "everything", powercap: true, classaware: true, thermal: true, ladder: true},
	{name: "faults", faults: true},
	{name: "faults+elastic+ladder", faults: true, elastic: true, ladder: true},
	{name: "migration", migration: true},
	{name: "migration+elastic+ladder", migration: true, elastic: true, ladder: true},
}

// invMigPicker is the fuzz harness's migration policy: move any
// class-pure fast-class job onto the efficiency class whenever its
// restart width fits there. One-directional on purpose — a migrated
// job lands on the efficiency class and is never ordered again, so the
// fuzz cannot ping-pong a job between classes forever.
type invMigPicker struct{}

func (invMigPicker) Decide(*QueueView, ResizeRequest) Decision { return Decision{Action: NoAction} }

func (invMigPicker) PickMigration(v *MigrateView) (MigrationDecision, bool) {
	slow := energy.EfficiencyProfile().Class
	for _, j := range v.Candidates() {
		src := v.AllocClasses(j)
		if len(src) != 1 || src[0] == slow {
			continue
		}
		need := v.RestartNodes(j)
		if v.ClassTotal(slow) < need || v.FreeOfClass(slow) < need {
			continue
		}
		return MigrationDecision{Job: j, Class: slow, Reason: "consolidate", Cost: v.MoveCost(j, need)}, true
	}
	return MigrationDecision{}, false
}

// invNodeSnap is one node's power-relevant state between two events.
type invNodeSnap struct {
	state  energy.NodeState
	sstate int
	floor  int
}

// invChecker asserts the state machine's invariants after every event.
type invChecker struct {
	c      *Controller
	cfg    invConfig
	prev   []invNodeSnap
	joules float64
}

func newInvChecker(c *Controller, cfg invConfig) *invChecker {
	k := &invChecker{c: c, cfg: cfg, prev: make([]invNodeSnap, len(c.cluster.Nodes))}
	for i := range k.prev {
		k.prev[i] = k.snap(i)
	}
	return k
}

func (k *invChecker) snap(i int) invNodeSnap {
	a := k.c.Energy()
	return invNodeSnap{state: a.State(i), sstate: a.SStateOf(i), floor: a.ThermalFloor(i)}
}

func (k *invChecker) check(t *testing.T) {
	t.Helper()
	c, a := k.c, k.c.Energy()
	now := c.k.Now()
	sum := 0.0
	for i := range c.cluster.Nodes {
		cur := k.snap(i)
		prev := k.prev[i]
		// Legal state transitions: an active node never falls asleep in
		// place (it must be released first, and the sleep descent is a
		// later timer event), and a sleeping node only ever deepens —
		// leaving sleep means waking to Idle or Active.
		if prev.state == energy.Active && cur.state == energy.Sleeping {
			t.Fatalf("t=%v node %d went ACTIVE→SLEEPING within one event", now, i)
		}
		if prev.state == energy.Sleeping && cur.state == energy.Sleeping && cur.sstate < prev.sstate {
			t.Fatalf("t=%v node %d sleep rung went shallower in place: S%d→S%d", now, i, prev.sstate, cur.sstate)
		}
		// No node is simultaneously allocated (or held) and asleep.
		if c.owner[i] != 0 && cur.state != energy.Active {
			t.Fatalf("t=%v node %d owned by %d but %v", now, i, c.owner[i], cur.state)
		}
		// The free pool's three halves agree with the accountant, and no
		// node sits in more than one bitmap of its class pool.
		cp := c.pool.byNode[i]
		inSets := 0
		for _, in := range []bool{cp.awake.has(i), cp.asleep.has(i), cp.booting.has(i)} {
			if in {
				inSets++
			}
		}
		if inSets > 1 {
			t.Fatalf("t=%v node %d in %d pool bitmaps at once", now, i, inSets)
		}
		if cp.asleep.has(i) && cur.state != energy.Sleeping {
			t.Fatalf("t=%v node %d pooled as asleep but %v", now, i, cur.state)
		}
		if c.pool.contains(i) && cur.state == energy.Active {
			t.Fatalf("t=%v node %d is in the free pool while ACTIVE", now, i)
		}
		// The mid-boot state is explicit: a free node the accountant
		// says is booting sits in the pool's booting bitmap
		// (never awake — the hole that once let a booting node be
		// allocated as if it were), and pooled-as-awake means no wake
		// transition is still in flight on its clock.
		if cp.booting.has(i) {
			if cur.state != energy.Booting {
				t.Fatalf("t=%v node %d pooled as booting but %v", now, i, cur.state)
			}
			if c.bootUntil[i] < now {
				t.Fatalf("t=%v node %d pooled as booting past its bootUntil %v", now, i, c.bootUntil[i])
			}
		}
		if cur.state == energy.Booting && c.owner[i] == 0 && !cp.booting.has(i) {
			t.Fatalf("t=%v node %d is free and BOOTING but not in the booting bitmap", now, i)
		}
		if cp.awake.has(i) && c.bootUntil[i] > now {
			t.Fatalf("t=%v node %d pooled as awake inside its wake window (until %v)", now, i, c.bootUntil[i])
		}
		// Decommission is total: offline ⇔ powered off, and a powered-off
		// node is neither pooled nor owned.
		if c.isOffline(i) != (cur.state == energy.Off) {
			t.Fatalf("t=%v node %d offline=%v but state %v", now, i, c.isOffline(i), cur.state)
		}
		if cur.state == energy.Off && (c.pool.contains(i) || c.owner[i] != 0) {
			t.Fatalf("t=%v node %d is OFF while pooled or owned", now, i)
		}
		// Fault machinery coherence: the failed ledger and the energy
		// meter agree exactly; failed hardware is out of the free pool
		// and (in this harness, where every job requeues on a crash)
		// unowned; a repair timer is only ever in flight for crashed or
		// unhealthy hardware and never coexists with a parked repair;
		// unhealthy nodes sit powered off awaiting repair.
		if f := c.faults; f != nil {
			if f.failed[i] != (cur.state == energy.Failed) {
				t.Fatalf("t=%v node %d failed=%v but meter says %v", now, i, f.failed[i], cur.state)
			}
			if f.failed[i] && c.pool.contains(i) {
				t.Fatalf("t=%v node %d is FAILED yet pooled", now, i)
			}
			if f.failed[i] && c.owner[i] != 0 {
				t.Fatalf("t=%v node %d is FAILED yet owned by %d", now, i, c.owner[i])
			}
			if f.repairPending[i] && !(f.failed[i] || f.unhealthy[i]) {
				t.Fatalf("t=%v node %d has a repair pending while healthy", now, i)
			}
			if f.repairPending[i] && f.repairParked[i] {
				t.Fatalf("t=%v node %d repair both pending and parked", now, i)
			}
			if f.repairParked[i] && !f.failed[i] {
				t.Fatalf("t=%v node %d repair parked on unfailed hardware", now, i)
			}
			if f.unhealthy[i] && !c.isOffline(i) {
				t.Fatalf("t=%v node %d unhealthy but not powered off", now, i)
			}
		}
		// Thermal floors stay within the profile's P-state range and
		// temperatures never undershoot ambient.
		if th := c.cluster.Nodes[i].Power.Thermal; th.Enabled() {
			if cur.floor < 0 || cur.floor >= len(c.cluster.Nodes[i].Power.PStates) {
				t.Fatalf("t=%v node %d thermal floor %d out of range", now, i, cur.floor)
			}
			if temp := a.TempC(i); temp < th.AmbientC-1e-6 {
				t.Fatalf("t=%v node %d at %.3f °C, below ambient", now, i, temp)
			}
		} else if cur.floor != 0 {
			t.Fatalf("t=%v node %d has thermal floor %d without an envelope", now, i, cur.floor)
		}
		sum += a.NodePowerW(i)
		k.prev[i] = cur
	}
	// A pending migration order only ever points at a live running job,
	// and a job mid-transition still owns every node of its allocation:
	// nothing may be released or reallocated out from under it before
	// the checkpoint is written and the requeue executes.
	if m := c.migration; m != nil {
		for id := range m.orders {
			j := c.jobs[id]
			if j == nil || j.State != StateRunning {
				t.Fatalf("t=%v migration order for job %d, which is not running", now, id)
			}
			for _, nd := range j.alloc {
				if c.owner[nd.Index] != j.ID {
					t.Fatalf("t=%v migrating job %d lost node %d mid-transition (owner %d)",
						now, j.ID, nd.Index, c.owner[nd.Index])
				}
			}
		}
	}
	// AllocatedNodes is the owner index's nonzero count, and agrees with
	// the complement it was once computed as: every node outside the
	// free pool that is neither powered off nor unowned FAILED hardware.
	owned, offline, unownedFailed := 0, 0, 0
	for i := range c.cluster.Nodes {
		switch {
		case c.owner[i] != 0:
			owned++
		case c.isOffline(i):
			offline++
		case c.nodeFailed(i):
			unownedFailed++
		}
	}
	if got := c.AllocatedNodes(); got != owned {
		t.Fatalf("t=%v AllocatedNodes %d, owner index holds %d", now, got, owned)
	}
	if got, want := c.AllocatedNodes(), len(c.cluster.Nodes)-c.pool.total-offline-unownedFailed; got != want {
		t.Fatalf("t=%v AllocatedNodes %d, complement of pool, offline and unowned failed %d", now, got, want)
	}
	// The cluster total is exactly the sum of per-node draws.
	if math.Abs(sum-a.TotalPowerW()) > 1e-6 {
		t.Fatalf("t=%v TotalPowerW %.6f != Σ node draws %.6f", now, a.TotalPowerW(), sum)
	}
	// Energy only ever accumulates.
	if j := a.TotalJoules(); j < k.joules-1e-6 {
		t.Fatalf("t=%v energy integral went backwards: %.3f → %.3f", now, k.joules, j)
	} else {
		k.joules = j
	}
	// The power cap holds between events. Thermal restores can lift a
	// node's floor outside admission control; capEnforce sheds the
	// excess best-effort, so the hard bound is only asserted without an
	// envelope.
	if k.cfg.powercap && !k.cfg.thermal {
		if a.TotalPowerW() > c.cfg.PowerCapW+1e-6 {
			t.Fatalf("t=%v draw %.1f W exceeds the %.1f W cap", now, a.TotalPowerW(), c.cfg.PowerCapW)
		}
	}
}

// invCluster builds a half-fast half-efficiency fleet, thermally
// enveloped when the config asks for it.
func invCluster(nodes int, thermal bool) *platform.Cluster {
	fast, slow := energy.DefaultProfile(), energy.EfficiencyProfile()
	if thermal {
		fast = energy.WithThermal(fast, energy.DefaultThermalFor(fast))
		slow = energy.WithThermal(slow, energy.DefaultThermalFor(slow))
	}
	pc := platform.Marenostrum3()
	pc.Nodes = nodes
	pc.Classes = []platform.MachineClass{
		{Count: nodes / 2, Power: fast},
		{Count: nodes - nodes/2, Power: slow},
	}
	return platform.New(pc)
}

func runInvariantFuzz(t *testing.T, ic invConfig, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const nodes = 12
	cl := invCluster(nodes, ic.thermal)
	cfg := DefaultConfig()
	cfg.ClassAware = ic.classaware
	if ic.ladder {
		cfg.SleepLadder = []SleepRung{
			{AfterIdle: 40 * sim.Second, State: 0},
			{AfterIdle: 160 * sim.Second, State: 1},
		}
	} else {
		cfg.SleepLadder = []SleepRung{{AfterIdle: 40 * sim.Second, State: rng.Intn(2)}}
	}
	if ic.powercap {
		// Between the all-idle floor and the all-P0 peak: tight enough to
		// throttle, loose enough that every job is admissible.
		cfg.PowerCapW = 1600 + rng.Float64()*600
	}
	if ic.elastic {
		// A tight envelope with aggressive timers: constant provisioning
		// and decommissioning churn, racing boots against allocations,
		// completions, the holder and the sleep ladder.
		cfg.Elastic = &ElasticConfig{
			Min:        2 + rng.Intn(4),
			Interval:   20 * sim.Second,
			BootBurst:  2 + rng.Intn(3),
			TargetWait: sim.Time(rng.Intn(3)) * 30 * sim.Second,
			HoldDown:   60 * sim.Second,
		}
	}
	if ic.faults {
		// Frequent crashes and (under elastic) boot failures, bounded to
		// the workload's era so the post-run crash chain stays short. The
		// injector's stream is salted independently of the workload rng.
		fc := faults.Config{
			MTBF:    sim.Time(500+rng.Intn(500)) * sim.Second,
			MTTR:    120 * sim.Second,
			Horizon: 2500 * sim.Second,
			Seed:    seed,
		}
		if ic.elastic {
			fc.BootFailP = 0.3
		}
		cfg.Faults = faults.New(fc)
	}
	if ic.migration {
		// A short interval keeps the decision pass racing against
		// completions, shrinks, the holder and (composed) elastic churn.
		cfg.Policy = invMigPicker{}
		cfg.Migration = &MigrationConfig{Interval: 30 * sim.Second}
	}
	c := NewController(cl, cfg)

	// launch runs a job for d, halving its width at d/2 when shrink is
	// set.
	launch := func(d sim.Time, shrink bool) func(*Job, []*platform.Node) {
		return func(j *Job, _ []*platform.Node) {
			// A crash requeue or a live migration may take the job away
			// mid-run; this incarnation's timers must then neither mutate
			// nor complete the restart. Incarnation covers both (Requeues
			// alone would let a migrated-away timer double-complete).
			inc := j.Incarnation
			live := func() bool { return j.Incarnation == inc && j.State == StateRunning }
			if ic.migration {
				c.SetStateBytes(j, 256<<20)
			}
			cl.K.Spawn(j.Name, func(p *sim.Proc) {
				// run sleeps in slices, polling for a migration order at
				// each slice head (the bare-closure analog of the nanos
				// runtime's batch heads); false means this incarnation is
				// done and must unwind without completing the job.
				run := func(dur sim.Time) bool {
					for dur > 0 {
						slice := dur
						if ic.migration && slice > 20*sim.Second {
							slice = 20 * sim.Second
						}
						p.Sleep(slice)
						if !live() {
							return false
						}
						dur -= slice
						if ic.migration && c.MigrationOrdered(j) {
							c.MigrateRequeue(j)
							return false
						}
					}
					return true
				}
				if shrink {
					if !run(d / 2) {
						return
					}
					if n := j.NNodes(); n > 1 && n%2 == 0 {
						c.ShrinkJob(j, n/2)
					}
					if !run(d / 2) {
						return
					}
				} else if !run(d) {
					return
				}
				c.JobComplete(j)
			})
		}
	}
	classes := []string{"", energy.DefaultProfile().Class, energy.EfficiencyProfile().Class}
	jobs := make([]*Job, 0, 31)
	var arr sim.Time
	for i := 0; i < 30; i++ {
		width := 1 + rng.Intn(6)
		d := sim.Time(20+rng.Intn(380)) * sim.Second
		j := &Job{Name: fmt.Sprintf("fz%02d", i), ReqNodes: width, TimeLimit: 4 * d}
		switch rng.Intn(4) {
		case 0: // hard pin
			j.ReqClass = classes[1+rng.Intn(2)]
		case 1: // soft preference
			j.PrefClass = classes[1+rng.Intn(2)]
		}
		if rng.Intn(3) == 0 && width > 1 { // moldable range
			j.MinNodes = 1 + rng.Intn(width)
			j.MaxNodes = width
			if rng.Intn(2) == 0 {
				j.PrefNodes = j.MinNodes + rng.Intn(width-j.MinNodes+1)
			}
		}
		shrink := rng.Intn(4) == 0 && width%2 == 0 && width > 1
		j.Launch = launch(d, shrink)
		jobs = append(jobs, j)
		arr += sim.Time(rng.ExpFloat64() * float64(30*sim.Second))
		cl.K.At(arr, func() { c.Submit(j) })
	}
	// A one-node holder from t=300 s to t≈700 s takes a node out of the
	// pool mid-run, racing sleep timers, crashes and the free pool.
	hold := &Job{Name: "hold", ReqNodes: 1, TimeLimit: 1600 * sim.Second}
	hold.Launch = launch(400*sim.Second, false)
	jobs = append(jobs, hold)
	cl.K.At(300*sim.Second, func() { c.Submit(hold) })

	chk := newInvChecker(c, ic)
	for cl.K.Step() {
		chk.check(t)
		if t.Failed() {
			return
		}
	}

	// Terminal invariants: everything completed, the attribution
	// partitions the total, and every accounting column is non-negative.
	if c.CompletedJobs() != len(jobs) {
		t.Fatalf("completed %d of %d jobs", c.CompletedJobs(), len(jobs))
	}
	a := c.Energy()
	if diff := a.AttributedJoules() + a.UnattributedJoules() - a.TotalJoules(); math.Abs(diff) > 1e-6 {
		t.Fatalf("attribution leak: %.6f J", diff)
	}
	for _, r := range c.Accounting() {
		for col, v := range map[string]float64{
			"submit_s": r.SubmitSec, "start_s": r.StartSec, "end_s": r.EndSec,
			"wait_s": r.WaitSec, "exec_s": r.ExecSec, "completion_s": r.CompletionSec,
			"node_seconds": r.NodeSeconds, "energy_j": r.EnergyJ, "avg_power_w": r.AvgPowerW,
			"throttled_s": r.ThrottledSec, "thermal_throttled_s": r.ThermalThrottledSec,
			"min_class_speed": r.MinClassSpeed,
			"requeues":        float64(r.Requeues), "lost_work_s": r.LostWorkS,
			"migrations": float64(r.Migrations), "migrated_s": r.MigratedS,
		} {
			if v < 0 {
				t.Fatalf("job %d: accounting column %s is negative: %f", r.ID, col, v)
			}
		}
	}
	// Migration bookkeeping balances: every executed move came from an
	// order, no order survives the drained run, and the per-job columns
	// sum to the cluster stats.
	if ic.migration {
		ms := c.Stats()
		if ms.Migrations > ms.MigrationOrders {
			t.Fatalf("migration stats: %d migrations from %d orders", ms.Migrations, ms.MigrationOrders)
		}
		if n := len(c.migration.orders); n != 0 {
			t.Fatalf("%d migration orders left pending after drain", n)
		}
		sum := 0
		for _, r := range c.Accounting() {
			sum += r.Migrations
		}
		if sum != ms.Migrations {
			t.Fatalf("accounting shows %d migrations, stats %d", sum, ms.Migrations)
		}
		t.Logf("migration fuzz: %d orders, %d executed, %.1f s charged", ms.MigrationOrders, ms.Migrations, ms.MigratedS)
	}
}

func TestInvariantFuzz(t *testing.T) {
	for _, ic := range invConfigs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", ic.name, seed), func(t *testing.T) {
				runInvariantFuzz(t, ic, seed)
			})
		}
	}
}
