package slurm

import (
	"testing"

	"repro/internal/sim"
)

// Regression: the EASY reservation must not count drained nodes as
// returning when a running job ends — they leave service on release, so
// the shadow time is later and the extra pool smaller than the naive
// count suggests.
func TestReservationExcludesDrainedNodes(t *testing.T) {
	cl := testCluster(4)
	c := NewController(cl, DefaultConfig())
	long := c.Submit(sleeperJob(c, "long", 3, 100*sim.Second))
	cl.K.RunUntil(sim.Second)
	if long.State != StateRunning {
		t.Fatalf("long job state %v", long.State)
	}
	// Drain one of the running job's nodes: it will not come back when
	// the job ends.
	if err := c.DrainNode(long.Alloc()[1].Index); err != nil {
		t.Fatal(err)
	}
	// Head of the queue needs 3 nodes: exactly what the long job's
	// non-drained release (2) plus the free node (1) provides.
	head := c.Submit(sleeperJob(c, "head", 3, 10*sim.Second))
	// A long 1-node filler. With the drained node miscounted, the
	// reservation computes extra=1 and backfills it onto the single free
	// node, delaying the head job past the long job's end.
	filler := c.Submit(sleeperJob(c, "filler", 1, 500*sim.Second))
	cl.K.Run()
	if head.State != StateCompleted || filler.State != StateCompleted {
		t.Fatalf("states head=%v filler=%v", head.State, filler.State)
	}
	if head.StartTime > 101*sim.Second {
		t.Fatalf("head started at %v: backfill gave its reservation away", head.StartTime)
	}
	if filler.StartTime < head.StartTime {
		t.Fatalf("filler (start %v) jumped the cap-free reservation holder (start %v)",
			filler.StartTime, head.StartTime)
	}
}

// Regression: a backfilled job allocated sleeping nodes launches only
// after their wake latency, so the fit-before-shadow check must include
// the worst-case wake delay of the nodes it would receive.
func TestBackfillAccountsWakeLatency(t *testing.T) {
	cl := testCluster(4)
	cfg := DefaultConfig()
	cfg.SleepLadder = []SleepRung{{AfterIdle: 5 * sim.Second, State: 1}} // deep sleep: 30 s wake
	c := NewController(cl, cfg)

	// Occupy nodes 0-1 immediately so only nodes 2-3 fall asleep.
	long := c.Submit(sleeperJob(c, "long", 2, 100*sim.Second))
	cl.K.RunUntil(40 * sim.Second)
	if n := c.Energy().SleepingNodes(); n != 2 {
		t.Fatalf("%d nodes asleep, want 2", n)
	}
	// Blocked head needs the whole machine once the long job ends.
	head := c.Submit(sleeperJob(c, "head", 4, 10*sim.Second))
	// Candidate fits before the shadow time on paper (40+52 < 101) but
	// not once the 30 s wake of its sleeping nodes is added.
	candidate := c.Submit(sleeperJob(c, "cand", 2, 51*sim.Second))
	cl.K.Run()
	if long.State != StateCompleted || head.State != StateCompleted || candidate.State != StateCompleted {
		t.Fatal("not all jobs completed")
	}
	if candidate.StartTime < head.StartTime {
		t.Fatalf("candidate (start %v) was backfilled over the shadow time (head start %v)",
			candidate.StartTime, head.StartTime)
	}
	if head.StartTime > 105*sim.Second {
		t.Fatalf("head start %v: reservation not honored", head.StartTime)
	}
}

// Energy-aware allocation: among free nodes, awake ones are preferred
// over sleeping ones so jobs skip the wake latency (and its boot
// energy) whenever possible.
func TestAllocatePrefersAwakeNodes(t *testing.T) {
	cl := testCluster(4)
	cfg := DefaultConfig()
	cfg.SleepLadder = []SleepRung{{AfterIdle: 10 * sim.Second}}
	c := NewController(cl, cfg)

	// Hold nodes 0-1 out of service so the first job lands on 2-3,
	// keeping them awake while 0-1 (lower-indexed!) doze off.
	if err := c.DrainNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.DrainNode(1); err != nil {
		t.Fatal(err)
	}
	a := c.Submit(sleeperJob(c, "a", 2, 50*sim.Second))
	cl.K.At(20*sim.Second, func() {
		if err := c.ResumeNode(0); err != nil {
			t.Error(err)
		}
		if err := c.ResumeNode(1); err != nil {
			t.Error(err)
		}
	})
	var b *Job
	cl.K.At(55*sim.Second, func() {
		// Free pool: 0-1 asleep (resumed at 20, asleep at 30), 2-3 just
		// released and awake. Index order would pick the sleepers.
		if n := c.Energy().SleepingNodes(); n != 2 {
			t.Errorf("%d nodes asleep at t=55, want 2", n)
		}
		b = c.Submit(sleeperJob(c, "b", 2, 10*sim.Second))
	})
	cl.K.Run()
	if a.State != StateCompleted || b.State != StateCompleted {
		t.Fatal("jobs did not complete")
	}
	// Awake nodes 2-3 were chosen: no wake latency in b's execution and
	// no wake transition anywhere in the run.
	if got := b.ExecTime(); got != 10*sim.Second {
		t.Fatalf("b exec %v, want exactly 10s (allocation picked sleeping nodes)", got)
	}
	if got := c.Energy().Wakes(); got != 0 {
		t.Fatalf("%d wakes, want 0: sleeping nodes were allocated over awake ones", got)
	}
}
