package slurm

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestFormatQueueShowsRunningAndPending(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	c.Submit(sleeperJob(c, "runner", 4, 50*sim.Second))
	c.Submit(sleeperJob(c, "waiter", 4, 10*sim.Second))
	cl.K.RunUntil(sim.Second)
	out := c.FormatQueue()
	if !strings.Contains(out, "runner") || !strings.Contains(out, "RUNNING") {
		t.Fatalf("missing running job:\n%s", out)
	}
	if !strings.Contains(out, "waiter") || !strings.Contains(out, "PENDING") {
		t.Fatalf("missing pending job:\n%s", out)
	}
	cl.K.Run()
}

func TestFormatNodesCountsAndOwners(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	c.Submit(sleeperJob(c, "holder", 3, 50*sim.Second))
	cl.K.RunUntil(sim.Second)
	out := c.FormatNodes()
	if !strings.Contains(out, "nodes: 4 total, 3 allocated, 1 free\n") {
		t.Fatalf("node counts wrong:\n%s", out)
	}
	if !strings.Contains(out, "node000=holder") {
		t.Fatalf("owner map wrong:\n%s", out)
	}
	cl.K.Run()
}

func TestFormatQueueMarksDependencies(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	a := c.Submit(sleeperJob(c, "first", 2, 20*sim.Second))
	dep := sleeperJob(c, "second", 2, 5*sim.Second)
	dep.Dependency = Dependency{Type: DepAfterAny, JobID: a.ID}
	c.Submit(dep)
	cl.K.RunUntil(sim.Second)
	out := c.FormatQueue()
	if !strings.Contains(out, "(dependency)") {
		t.Fatalf("dependency marker missing:\n%s", out)
	}
	cl.K.Run()
}
