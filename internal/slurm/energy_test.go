package slurm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// energyController builds a controller with accounting and the given
// idle-sleep timeout (0: idle nodes never sleep) on a fresh cluster.
func energyController(nodes int, idleSleep sim.Time) (*platform.Cluster, *Controller) {
	cl := testCluster(nodes)
	cfg := DefaultConfig()
	if idleSleep > 0 {
		cfg.SleepLadder = []SleepRung{{AfterIdle: idleSleep}}
	}
	return cl, NewController(cl, cfg)
}

// Every controller meters: one built from the default config, with no
// accountant passed in, attributes a job's draw at the profile's P0.
func TestDefaultConfigMeters(t *testing.T) {
	cl := testCluster(2)
	c := NewController(cl, DefaultConfig())
	if c.Energy() == nil {
		t.Fatal("default controller has no accountant")
	}
	j := c.Submit(sleeperJob(c, "metered", 1, 100*sim.Second))
	cl.K.Run()
	recs := c.Accounting()
	if j.State != StateCompleted || len(recs) != 1 {
		t.Fatalf("job %v, %d records", j.State, len(recs))
	}
	prof := energy.DefaultProfile()
	if got, want := recs[0].EnergyJ/recs[0].NodeSeconds, prof.ActiveW(0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy per node-second %.3f W, want the P0 draw %.0f W", got, want)
	}
}

func TestIdleNodesSleepAfterTimeout(t *testing.T) {
	cl, c := energyController(4, 30*sim.Second)
	cl.K.RunUntil(29 * sim.Second)
	if n := c.Energy().SleepingNodes(); n != 0 {
		t.Fatalf("%d nodes asleep before the timeout", n)
	}
	cl.K.RunUntil(31 * sim.Second)
	if n := c.Energy().SleepingNodes(); n != 4 {
		t.Fatalf("%d nodes asleep after the timeout, want 4", n)
	}
	// An empty sleeping cluster draws only sleep power from here on.
	before := c.Energy().TotalJoules()
	cl.K.RunUntil(1031 * sim.Second)
	got := c.Energy().TotalJoules() - before
	prof := energy.DefaultProfile()
	want := 4 * prof.SleepW(0) * 1000
	if math.Abs(got-want) > 1 {
		t.Fatalf("sleeping cluster burned %.1f J over 1000 s, want %.1f J", got, want)
	}
}

func TestAllocationCancelsArmedSleep(t *testing.T) {
	cl, c := energyController(4, 30*sim.Second)
	// Job arrives at t≈0 and runs past the idle timeout: its nodes must
	// not be put to sleep underneath it.
	j := c.Submit(sleeperJob(c, "busy", 4, 100*sim.Second))
	cl.K.RunUntil(50 * sim.Second)
	if n := c.Energy().SleepingNodes(); n != 0 {
		t.Fatalf("%d allocated nodes went to sleep", n)
	}
	if j.State != StateRunning {
		t.Fatalf("job state %v", j.State)
	}
}

func TestWakeDelaysLaunch(t *testing.T) {
	cl, c := energyController(2, 10*sim.Second)
	// Let the whole cluster fall asleep, then submit.
	var j *Job
	cl.K.At(60*sim.Second, func() {
		j = c.Submit(sleeperJob(c, "late", 2, 20*sim.Second))
	})
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if c.Energy().Wakes() != 2 {
		t.Fatalf("%d wakes, want 2", c.Energy().Wakes())
	}
	// ExecTime spans wake + 20 s of work: the launch was delayed by the
	// shallow-sleep wake latency.
	prof := energy.DefaultProfile()
	wake := prof.WakeLatency(0)
	if got := j.ExecTime(); got != 20*sim.Second+wake {
		t.Fatalf("exec time %v, want %v", got, 20*sim.Second+wake)
	}
}

func TestJobEnergyAccounted(t *testing.T) {
	cl, c := energyController(4, 0) // no sleep: draw is exactly idle/active
	j := c.Submit(sleeperJob(c, "j", 2, 100*sim.Second))
	cl.K.Run()
	p := energy.DefaultProfile()
	want := 2 * p.ActiveW(0) * 100
	got := c.Energy().JobJoules(j.ID)
	if math.Abs(got-want) > 1 {
		t.Fatalf("job energy %.1f J, want %.1f J", got, want)
	}
	recs := c.Accounting()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	if math.Abs(recs[0].EnergyJ-want) > 1 {
		t.Fatalf("accounting EnergyJ %.1f, want %.1f", recs[0].EnergyJ, want)
	}
	if math.Abs(recs[0].AvgPowerW-2*p.ActiveW(0)) > 0.1 {
		t.Fatalf("AvgPowerW %.1f, want %.1f", recs[0].AvgPowerW, 2*p.ActiveW(0))
	}
}

func TestAccountingCSVCarriesEnergy(t *testing.T) {
	cl, c := energyController(4, 0)
	c.Submit(sleeperJob(c, "j", 2, 50*sim.Second))
	cl.K.Run()
	var b strings.Builder
	if err := c.WriteAccountingCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "energy_j") || !strings.Contains(out, "avg_power_w") {
		t.Fatalf("CSV header missing energy columns:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d CSV lines", len(lines))
	}
	fields := strings.Split(lines[1], ",")
	if len(fields) != 18 {
		t.Fatalf("%d fields: %v", len(fields), fields)
	}
	if fields[13] == "0.0" {
		t.Fatal("energy_j column is zero for a completed job")
	}
}

func TestResizeKeepsAttributionConsistent(t *testing.T) {
	// Shrink a running job and check the released nodes stop charging it
	// while the kept nodes continue to.
	cl, c := energyController(4, 0)
	j := &Job{Name: "app", ReqNodes: 4, TimeLimit: sim.Hour, Flexible: true}
	j.Launch = func(j *Job, _ []*platform.Node) {
		cl.K.Spawn("app", func(p *sim.Proc) {
			p.Sleep(100 * sim.Second)
			c.ShrinkJob(j, 2)
			p.Sleep(100 * sim.Second)
			c.JobComplete(j)
		})
	}
	c.Submit(j)
	cl.K.Run()
	p := energy.DefaultProfile()
	want := p.ActiveW(0) * (4*100 + 2*100)
	got := c.Energy().JobJoules(j.ID)
	if math.Abs(got-want) > 1 {
		t.Fatalf("resized job energy %.1f J, want %.1f J", got, want)
	}
	// Total is conserved: attributed plus idle remainder equals the sum
	// of node integrals.
	a := c.Energy()
	if math.Abs(a.AttributedJoules()+a.UnattributedJoules()-a.TotalJoules()) > 1e-6 {
		t.Fatal("attribution does not partition the total")
	}
}

func TestExpandDanceOnSleepingNodesChargesTarget(t *testing.T) {
	// Target job A runs on 1 of 3 nodes; the other two fall into the
	// DEEP sleep state (30 s wake, longer than the nanos expand timeout
	// — the regression that used to panic the dance's abort path). The
	// resizer must start synchronously and its boot draw must be
	// charged to A, not to the internal resizer job.
	cl := testCluster(3)
	cfg := DefaultConfig()
	cfg.SleepLadder = []SleepRung{{AfterIdle: 10 * sim.Second, State: 1}}
	c := NewController(cl, cfg)

	a := &Job{Name: "A", ReqNodes: 1, TimeLimit: sim.Hour, Flexible: true}
	a.Launch = func(j *Job, _ []*platform.Node) {
		cl.K.Spawn("A", func(p *sim.Proc) { p.Sleep(sim.Hour) })
	}
	c.Submit(a)
	cl.K.RunUntil(60 * sim.Second)
	if n := c.Energy().SleepingNodes(); n != 2 {
		t.Fatalf("%d nodes asleep, want 2", n)
	}

	var startedAt sim.Time = -1
	var rj *Job
	cl.K.At(61*sim.Second, func() {
		rj = c.SubmitResizer(a, 2, func(*Job) { startedAt = cl.K.Now() })
	})
	cl.K.RunUntil(120 * sim.Second)
	if rj.State != StateRunning || startedAt < 0 {
		t.Fatalf("resizer state %v, startedAt %v", rj.State, startedAt)
	}
	// Synchronous start: fired at the scheduling pass, not 30 s later.
	if startedAt > 63*sim.Second {
		t.Fatalf("resizer start delayed to %v (wake latency leaked into the dance)", startedAt)
	}
	// Finish the dance and check attribution.
	cl.K.At(121*sim.Second, func() {
		nodes := c.DetachNodes(rj)
		c.CancelResizer(rj)
		c.GrowJob(a, nodes)
	})
	cl.K.At(200*sim.Second, func() { c.JobComplete(a) })
	cl.K.Run()
	if got := c.Energy().JobJoules(rj.ID); got != 0 {
		t.Fatalf("internal resizer accrued %.1f J; boot energy lost from accounting", got)
	}
	if got, want := c.Energy().AttributedJoules(), c.Energy().JobJoules(a.ID); got != want {
		t.Fatalf("attributed %.1f J != target job's %.1f J", got, want)
	}
}

func TestHeterogeneousClassesMetered(t *testing.T) {
	cfg := platform.Marenostrum3()
	cfg.Nodes = 4
	cfg.Classes = []platform.MachineClass{
		{Count: 2, Power: energy.DefaultProfile()},
		{Count: 2, Power: energy.EfficiencyProfile()},
	}
	cl := platform.New(cfg)
	scfg := DefaultConfig()
	c := NewController(cl, scfg)
	// Job takes the first two (Xeon) nodes; the ARM pair idles.
	j := c.Submit(sleeperJob(c, "j", 2, 100*sim.Second))
	cl.K.Run()
	prof := energy.DefaultProfile()
	want := 2 * prof.ActiveW(0) * 100
	if got := c.Energy().JobJoules(j.ID); math.Abs(got-want) > 1 {
		t.Fatalf("job on Xeon pair: %.1f J, want %.1f J", got, want)
	}
	// The efficiency nodes idle far below the Xeons.
	if c.Energy().NodeJoules(3) >= c.Energy().NodeJoules(0) {
		t.Fatal("efficiency-class node out-drew the Xeon")
	}
}
