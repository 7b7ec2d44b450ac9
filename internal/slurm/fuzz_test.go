package slurm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// TestSchedulerFuzzInvariants drives the controller with a randomized
// but seeded mix of submissions, short one-node holders, cancellations
// and resize dances, checking global invariants throughout:
//   - allocation never exceeds capacity,
//   - no node is owned by two jobs (or a job and the held pool) at once,
//   - AllocatedNodes counts exactly the running and held nodes,
//   - every submitted job terminates (completed or cancelled),
//   - the free pool is exactly the complement at quiescence.
func TestSchedulerFuzzInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fuzzOnce(t, seed)
		})
	}
}

func fuzzOnce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const total = 24
	cl := testCluster(total)
	c := NewController(cl, DefaultConfig())

	checkOwnership := func() {
		owners := map[*platform.Node]string{}
		claim := func(n *platform.Node, who string) {
			if prev, ok := owners[n]; ok {
				t.Fatalf("node %s owned by both %s and %s", n.Name, prev, who)
			}
			owners[n] = who
		}
		for _, j := range c.RunningJobs() {
			for _, n := range j.Alloc() {
				claim(n, j.Name)
			}
		}
		for _, n := range c.held {
			claim(n, "held-pool")
		}
		if got, want := c.AllocatedNodes(), len(owners); got != want {
			t.Fatalf("allocated %d, running jobs and the held pool own %d", got, want)
		}
		for _, n := range c.freeList() {
			claim(n, "free-pool")
		}
		if c.AllocatedNodes() > total {
			t.Fatalf("allocated %d of %d", c.AllocatedNodes(), total)
		}
	}

	var all []*Job
	var flexibles []*Job
	at := sim.Time(0)
	for i := 0; i < 50; i++ {
		at += sim.Time(rng.Intn(30)) * sim.Second
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // submit a sleeper
			nodes := 1 + rng.Intn(12)
			dur := sim.Time(5+rng.Intn(90)) * sim.Second
			name := fmt.Sprintf("s%d-%d", seed, i)
			at := at
			cl.K.At(at, func() {
				j := c.Submit(sleeperJob(c, name, nodes, dur))
				all = append(all, j)
				checkOwnership()
			})
		case 6: // submit a job that resizes itself up and down
			name := fmt.Sprintf("flex%d-%d", seed, i)
			at := at
			cl.K.At(at, func() {
				j := &Job{Name: name, ReqNodes: 2, TimeLimit: sim.Hour}
				j.Launch = func(j *Job, _ []*platform.Node) {
					cl.K.Spawn(name, func(p *sim.Proc) {
						p.Sleep(10 * sim.Second)
						if c.FreeNodes() >= 2 {
							done := sim.NewSignal(cl.K)
							c.SubmitResizer(j, 2, func(rj *Job) {
								nodes := c.DetachNodes(rj)
								c.CancelResizer(rj)
								c.GrowJob(j, nodes)
								done.Fire()
							})
							if done.WaitTimeout(p, 20*sim.Second) {
								checkOwnership()
								p.Sleep(10 * sim.Second)
								c.ShrinkJob(j, 2)
								checkOwnership()
							}
						}
						p.Sleep(10 * sim.Second)
						c.JobComplete(j)
					})
				}
				c.Submit(j)
				all = append(all, j)
				flexibles = append(flexibles, j)
			})
		case 7: // cancel a random pending job
			at := at
			cl.K.At(at, func() {
				pend := c.PendingJobs()
				if len(pend) > 0 {
					target := pend[rng.Intn(len(pend))]
					if !target.Resizer {
						_ = c.Cancel(target)
					}
				}
				checkOwnership()
			})
		case 8, 9: // a short one-node holder
			dur := sim.Time(1+rng.Intn(total)) * sim.Second
			name := fmt.Sprintf("h%d-%d", seed, i)
			at := at
			cl.K.At(at, func() {
				all = append(all, c.Submit(sleeperJob(c, name, 1, dur)))
				checkOwnership()
			})
		}
	}
	cl.K.Run()

	for _, j := range all {
		if j.State != StateCompleted && j.State != StateCancelled {
			t.Fatalf("job %s stuck in %v", j.Name, j.State)
		}
	}
	if c.FreeNodes() != total || c.AllocatedNodes() != 0 {
		t.Fatalf("quiescent pool: %d free, %d allocated of %d",
			c.FreeNodes(), c.AllocatedNodes(), total)
	}
	if live := cl.K.LiveProcs(); len(live) != 0 {
		t.Fatalf("deadlocked procs: %v", live)
	}
	_ = flexibles
}
