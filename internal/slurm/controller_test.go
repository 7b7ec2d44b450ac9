package slurm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

func testCluster(nodes int) *platform.Cluster {
	cfg := platform.Marenostrum3()
	cfg.Nodes = nodes
	return platform.New(cfg)
}

// sleeperJob returns a job whose "application" just runs for d and then
// reports completion.
func sleeperJob(c *Controller, name string, nodes int, d sim.Time) *Job {
	j := &Job{Name: name, ReqNodes: nodes, TimeLimit: d + sim.Second}
	j.Launch = func(j *Job, _ []*platform.Node) {
		c.Kernel().Spawn(name, func(p *sim.Proc) {
			p.Sleep(d)
			c.JobComplete(j)
		})
	}
	return j
}

func TestSingleJobRunsAndCompletes(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	j := c.Submit(sleeperJob(c, "j1", 2, 10*sim.Second))
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("state %v", j.State)
	}
	if c.FreeNodes() != 4 {
		t.Fatalf("nodes leaked: %d free", c.FreeNodes())
	}
	if j.ExecTime() != 10*sim.Second {
		t.Fatalf("exec time %v", j.ExecTime())
	}
	if j.WaitTime() > sim.Second {
		t.Fatalf("wait time %v too large", j.WaitTime())
	}
}

func TestFIFOOrderWhenSaturated(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "a", 4, 10*sim.Second))
	b := c.Submit(sleeperJob(c, "b", 4, 10*sim.Second))
	cl.K.Run()
	if !(a.StartTime < b.StartTime) {
		t.Fatalf("b started before a: %v vs %v", a.StartTime, b.StartTime)
	}
	if b.StartTime < a.EndTime {
		t.Fatalf("b started while a held all nodes")
	}
}

func TestParallelStartWhenRoomy(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "a", 4, 10*sim.Second))
	b := c.Submit(sleeperJob(c, "b", 4, 10*sim.Second))
	cl.K.Run()
	if a.StartTime != b.StartTime {
		t.Fatalf("a and b should co-schedule: %v vs %v", a.StartTime, b.StartTime)
	}
}

func TestBackfillSmallJobJumpsQueue(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	long := c.Submit(sleeperJob(c, "long", 6, 100*sim.Second))
	big := c.Submit(sleeperJob(c, "big", 8, 10*sim.Second))     // blocked head
	small := c.Submit(sleeperJob(c, "small", 2, 20*sim.Second)) // fits the hole, ends before long
	cl.K.Run()
	if small.StartTime >= big.StartTime {
		t.Fatal("small job was not backfilled ahead of the blocked head")
	}
	if small.StartTime > sim.Second {
		t.Fatalf("small should start ~immediately, got %v", small.StartTime)
	}
	// The reservation must be honored: big starts when long ends.
	if big.StartTime < long.EndTime {
		t.Fatal("blocked head started before its nodes were free")
	}
	if big.StartTime > long.EndTime+sim.Second {
		t.Fatalf("backfill delayed the blocked head: big at %v, long ended %v", big.StartTime, long.EndTime)
	}
}

func TestBackfillRespectsReservation(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	long := c.Submit(sleeperJob(c, "long", 6, 100*sim.Second))
	big := c.Submit(sleeperJob(c, "big", 8, 10*sim.Second))
	// Would fit now but runs past the shadow time and would steal
	// reserved nodes: must NOT backfill.
	greedy := c.Submit(sleeperJob(c, "greedy", 2, 500*sim.Second))
	cl.K.Run()
	if greedy.StartTime < long.EndTime && big.StartTime > long.EndTime+sim.Second {
		t.Fatalf("greedy backfill delayed the reservation: big at %v", big.StartTime)
	}
	_ = greedy
}

func TestDependencyAfterAny(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "a", 2, 10*sim.Second))
	b := sleeperJob(c, "b", 2, 5*sim.Second)
	b.Dependency = Dependency{Type: DepAfterAny, JobID: a.ID}
	c.Submit(b)
	cl.K.Run()
	if b.StartTime < a.EndTime {
		t.Fatalf("dependent job started at %v before dep ended at %v", b.StartTime, a.EndTime)
	}
}

func TestDependencyExpandRequiresRunningTarget(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "a", 2, 50*sim.Second))
	rjStarted := false
	var rjStartTime sim.Time
	c.SubmitResizer(a, 2, func(rj *Job) {
		rjStarted = true
		rjStartTime = rj.StartTime
		// Complete the dance immediately.
		nodes := c.DetachNodes(rj)
		c.CancelResizer(rj)
		c.GrowJob(a, nodes)
	})
	cl.K.Run()
	if !rjStarted {
		t.Fatal("resizer never started")
	}
	if rjStartTime >= a.EndTime {
		t.Fatal("resizer must start while target runs")
	}
	if a.State != StateCompleted {
		t.Fatalf("job a state %v", a.State)
	}
	if c.FreeNodes() != 8 {
		t.Fatalf("node leak after dance: %d free", c.FreeNodes())
	}
}

func TestExpandDanceGrowsAllocation(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	var observed int
	j := &Job{Name: "app", ReqNodes: 2, TimeLimit: 100 * sim.Second}
	j.Launch = func(j *Job, _ []*platform.Node) {
		c.Kernel().Spawn("app", func(p *sim.Proc) {
			p.Sleep(time5())
			done := sim.NewSignal(c.Kernel())
			c.SubmitResizer(j, 2, func(rj *Job) {
				nodes := c.DetachNodes(rj)
				c.CancelResizer(rj)
				c.GrowJob(j, nodes)
				done.Fire()
			})
			done.Wait(p)
			observed = j.NNodes()
			p.Sleep(time5())
			c.JobComplete(j)
		})
	}
	c.Submit(j)
	cl.K.Run()
	if observed != 4 {
		t.Fatalf("after dance job has %d nodes, want 4", observed)
	}
	if c.FreeNodes() != 8 {
		t.Fatalf("%d free at end", c.FreeNodes())
	}
}

func time5() sim.Time { return 5 * sim.Second }

func TestShrinkReleasesNodesAndStartsQueued(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	var fat *Job
	fat = &Job{Name: "fat", ReqNodes: 8, TimeLimit: 100 * sim.Second}
	fat.Launch = func(j *Job, _ []*platform.Node) {
		c.Kernel().Spawn("fat", func(p *sim.Proc) {
			p.Sleep(10 * sim.Second)
			released := c.ShrinkJob(j, 4)
			if len(released) != 4 {
				t.Errorf("released %d nodes, want 4", len(released))
			}
			p.Sleep(50 * sim.Second)
			c.JobComplete(j)
		})
	}
	c.Submit(fat)
	queued := c.Submit(sleeperJob(c, "queued", 4, 10*sim.Second))
	cl.K.Run()
	if queued.StartTime < 10*sim.Second {
		t.Fatal("queued started before the shrink")
	}
	if queued.StartTime > 11*sim.Second {
		t.Fatalf("queued should start right after shrink, got %v", queued.StartTime)
	}
	if fat.ResizeCount != 1 {
		t.Fatalf("resize count %d", fat.ResizeCount)
	}
}

func TestCancelPendingJob(t *testing.T) {
	cl := testCluster(2)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "a", 2, 10*sim.Second))
	b := c.Submit(sleeperJob(c, "b", 2, 10*sim.Second))
	cl.K.At(sim.Second, func() {
		if err := c.Cancel(b); err != nil {
			t.Errorf("cancel: %v", err)
		}
	})
	cl.K.Run()
	if b.State != StateCancelled {
		t.Fatalf("b state %v", b.State)
	}
	if a.State != StateCompleted {
		t.Fatalf("a state %v", a.State)
	}
}

func TestBoostReordersQueue(t *testing.T) {
	cl := testCluster(2)
	c := NewController(cl, DefaultConfig())
	hold := c.Submit(sleeperJob(c, "hold", 2, 10*sim.Second))
	first := c.Submit(sleeperJob(c, "first", 2, 5*sim.Second))
	second := c.Submit(sleeperJob(c, "second", 2, 5*sim.Second))
	c.BoostJob(second.ID)
	cl.K.Run()
	if !(second.StartTime < first.StartTime) {
		t.Fatalf("boosted job did not start first: %v vs %v", second.StartTime, first.StartTime)
	}
	_ = hold
}

func TestMoldableJobTakesAvailableRange(t *testing.T) {
	cl := testCluster(6)
	c := NewController(cl, DefaultConfig())
	c.Submit(sleeperJob(c, "half", 2, 50*sim.Second))
	m := &Job{Name: "moldable", ReqNodes: 8, MinNodes: 2, MaxNodes: 8, TimeLimit: 20 * sim.Second}
	var got int
	m.Launch = func(j *Job, nodes []*platform.Node) {
		got = len(nodes)
		c.Kernel().Spawn("moldable", func(p *sim.Proc) {
			p.Sleep(10 * sim.Second)
			c.JobComplete(j)
		})
	}
	c.Submit(m)
	cl.K.Run()
	if got != 4 {
		t.Fatalf("moldable started with %d nodes, want the 4 available", got)
	}
}

func TestNodeSecondsAccounting(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	j := &Job{Name: "acct", ReqNodes: 4, TimeLimit: 100 * sim.Second}
	j.Launch = func(j *Job, _ []*platform.Node) {
		c.Kernel().Spawn("acct", func(p *sim.Proc) {
			p.Sleep(10 * sim.Second)
			c.ShrinkJob(j, 2)
			p.Sleep(10 * sim.Second)
			c.JobComplete(j)
		})
	}
	c.Submit(j)
	cl.K.Run()
	want := 4.0*10 + 2.0*10
	if j.NodeSeconds < want-0.1 || j.NodeSeconds > want+0.1 {
		t.Fatalf("node-seconds %.1f, want %.1f", j.NodeSeconds, want)
	}
}

// TestRandomWorkloadInvariants submits a random stream of jobs and checks
// global invariants: the controller never over-allocates, every job runs
// exactly once, and everything completes.
func TestRandomWorkloadInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cl := testCluster(16)
	c := NewController(cl, DefaultConfig())
	overAlloc := false
	c.SubscribeSamples(func(_ sim.Time, alloc, _, _, _ int) {
		if alloc > 16 {
			overAlloc = true
		}
	})
	var jobs []*Job
	at := sim.Time(0)
	for i := 0; i < 60; i++ {
		at += sim.Time(rng.Intn(20)) * sim.Second
		nodes := 1 + rng.Intn(16)
		dur := sim.Time(1+rng.Intn(120)) * sim.Second
		name := fmt.Sprintf("rand%d", i)
		at := at
		cl.K.At(at, func() {
			jobs = append(jobs, c.Submit(sleeperJob(c, name, nodes, dur)))
		})
	}
	cl.K.Run()
	if overAlloc {
		t.Fatal("controller over-allocated nodes")
	}
	if len(jobs) != 60 {
		t.Fatalf("submitted %d", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateCompleted {
			t.Fatalf("job %s state %v", j.Name, j.State)
		}
	}
	if c.FreeNodes() != 16 {
		t.Fatalf("%d nodes free at end", c.FreeNodes())
	}
	if live := cl.K.LiveProcs(); len(live) != 0 {
		t.Fatalf("deadlocked procs: %v", live)
	}
}

func TestEventsLogCoherent(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	var kinds []string
	c.SubscribeEvents(func(e Event) {
		if !e.Kind.Probe() {
			kinds = append(kinds, e.Kind.String())
		}
	})
	c.Submit(sleeperJob(c, "a", 2, 5*sim.Second))
	cl.K.Run()
	if fmt.Sprint(kinds) != "[SUBMIT START END]" {
		t.Fatalf("event log %v", kinds)
	}
}
