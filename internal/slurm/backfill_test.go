package slurm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Regression: the EASY reservation must not count FAILED nodes as
// returning when a running job ends — they go to repair on release, so
// the shadow time is later and the extra pool smaller than the naive
// count suggests.
func TestReservationExcludesFailedNodes(t *testing.T) {
	// Init draws in node order: node 1 crashes at 5 s, under the long
	// job, and stays in repair until long after the head job ran.
	fm := &stubFaults{crash: []sim.Time{0, 5 * sim.Second, 0, 0}, repair: 1000 * sim.Second}
	cl, c := faultController(4, fm, nil)
	long := sleeperJob(c, "long", 3, 100*sim.Second)
	// A failure handler that does nothing: the job keeps running on its
	// dead node and releases it at the end.
	long.OnNodeFail = func(*Job, *platform.Node) {}
	c.Submit(long)
	cl.K.RunUntil(6 * sim.Second)
	if long.State != StateRunning || !c.nodeFailed(long.Alloc()[1].Index) {
		t.Fatalf("long job state %v, alloc %v: want it running on the crashed node 1", long.State, long.Alloc())
	}
	// Head of the queue needs 3 nodes: exactly what the long job's
	// surviving release (2) plus the free node (1) provides.
	head := c.Submit(sleeperJob(c, "head", 3, 10*sim.Second))
	// A long 1-node filler. With the failed node miscounted, the
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

	// A short holder takes nodes 0-1 so the first job lands on 2-3,
	// keeping them awake while 0-1 (lower-indexed!) doze off.
	c.Submit(sleeperJob(c, "hold", 2, 5*sim.Second))
	a := c.Submit(sleeperJob(c, "a", 2, 50*sim.Second))
	var b *Job
	cl.K.At(55*sim.Second, func() {
		// Free pool: 0-1 asleep (released at 5, asleep at 15), 2-3 just
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

// walkPrice is the per-node pricing walk the prefix aggregates replace:
// the worst launch delay and the slowest start speed among the nodes
// pickNodes hands an n-node allocation for j.
func walkPrice(c *Controller, j *Job, n int) (sim.Time, float64) {
	var wake sim.Time
	speed := 1.0
	for _, nd := range c.pickNodes(j, n) {
		if w := c.wakePreview(nd); w > wake {
			wake = w
		}
		if s := c.nodeStartSpeed(nd); s < speed {
			speed = s
		}
	}
	return wake, speed
}

// walkBackfillEnd is backfillEnd priced by walkPrice.
func walkBackfillEnd(c *Controller, j *Job, n int) sim.Time {
	wake, speed := walkPrice(c, j, n)
	limit := j.TimeLimit
	if speed > 0 && speed < 1 {
		limit = sim.Time(float64(limit) / speed)
	}
	return c.k.Now() + wake + limit
}

// walkClassClampSize is classClampSize walking the n-node pick.
func walkClassClampSize(c *Controller, j *Job, n int) int {
	floor := c.startFloor(j)
	if !c.cfg.ClassAware || j.MinNodes >= j.MaxNodes || n <= floor {
		return n
	}
	pick := c.pickNodes(j, n)
	best, bestEff := n, 0.0
	slowest := 1.0
	for m := 1; m <= n; m++ {
		if s := c.nodeStartSpeed(pick[m-1]); s < slowest {
			slowest = s
		}
		if m < floor {
			continue
		}
		if eff := float64(m) * slowest; eff >= bestEff {
			best, bestEff = m, eff
		}
	}
	return best
}

// walkTake counts the n-node pick's nodes of one class.
func walkTake(c *Controller, j *Job, n int, class string) int {
	take := 0
	for _, nd := range c.pickNodes(j, n) {
		if nd.Class() == class {
			take++
		}
	}
	return take
}

// shape names a pricing candidate's placement demands.
func shape(j *Job) string {
	return fmt.Sprintf("req=%q pref=%q resizer=%v", j.ReqClass, j.PrefClass, j.Resizer)
}

// TestBackfillPricingMatchesWalk checks the pick orders' prefix
// aggregates (backfillEnd, classClampSize and the reservation-class
// take) against a per-node walk of pickNodes, for every candidate shape
// and every width, on randomized pools: both rungs of a two-rung ladder
// asleep, wake-ahead boots part-way through, thermal floors left by hot
// holders, failed nodes, two or three classes. Each seed prices two
// passes a few seconds apart, so boot remainders and ladder positions
// move between them without a pool mutation.
func TestBackfillPricingMatchesWalk(t *testing.T) {
	// seen counts the pool states the probes priced, so the fuzz cannot
	// silently stop reaching one of them.
	seen := map[string]int{}
	for _, classAware := range []bool{true, false} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			profiles := []energy.Profile{energy.DefaultProfile(), energy.EfficiencyProfile()}
			if seed%2 == 1 {
				profiles = append(profiles, gpuProfile())
			}
			cfg := platform.Marenostrum3()
			cfg.Nodes = 48
			cfg.Classes = nil
			for _, p := range profiles {
				p = energy.WithThermal(p, energy.DefaultThermalFor(p))
				cfg.Classes = append(cfg.Classes, platform.MachineClass{Count: cfg.Nodes / len(profiles), Power: p})
			}
			cl := platform.New(cfg)
			crashes := make([]sim.Time, cfg.Nodes)
			for i := 0; i < 6; i++ {
				crashes[rng.Intn(cfg.Nodes)] = sim.Time(10+rng.Intn(400)) * sim.Second
			}
			scfg := DefaultConfig()
			scfg.ClassAware = classAware
			scfg.SleepLadder = []SleepRung{{AfterIdle: 30 * sim.Second, State: 0}, {AfterIdle: 90 * sim.Second, State: 1}}
			scfg.Faults = &stubFaults{crash: crashes, repair: 1e6 * sim.Second}
			c := NewController(cl, scfg)

			// Hot holders: long enough to cross the thermal envelope
			// (≈377 s at P0), short enough that some release before the
			// probe and leave their nodes free under a floor.
			var holders []*Job
			for i := 0; i < 6; i++ {
				h := faultSleeper(c, "h", 1+rng.Intn(6), sim.Time(380+rng.Intn(500))*sim.Second)
				if rng.Intn(2) == 0 {
					h.ReqClass = profiles[rng.Intn(len(profiles))].Class
				}
				holders = append(holders, c.Submit(h))
			}
			cl.K.RunUntil(sim.Time(450+rng.Intn(500)) * sim.Second)
			for i := range cl.Nodes {
				if c.pool.byNode[i].asleep.has(i) && rng.Intn(4) == 0 {
					c.preBoot(cl.Nodes[i], c.sleepGen[i]) // a wake-ahead boot
				}
			}

			jobs := []*Job{{}, {ReqClass: fastClass, PrefClass: fastClass}}
			for _, p := range profiles {
				jobs = append(jobs, &Job{ReqClass: p.Class}, &Job{PrefClass: p.Class})
			}
			for _, h := range holders {
				if h.State == StateRunning {
					// An expand-dance resizer anchors to its target's class.
					jobs = append(jobs, &Job{Resizer: true, Dependency: Dependency{Type: DepExpand, JobID: h.ID}})
					break
				}
			}
			for _, j := range jobs {
				j.TimeLimit = sim.Time(1+rng.Intn(3600)) * sim.Second
				j.MinNodes, j.MaxNodes, j.PrefNodes = 1, 64, rng.Intn(4)
			}

			for pass := 0; pass < 2; pass++ {
				cl.K.RunUntil(cl.K.Now() + sim.Time(1+rng.Intn(5))*sim.Second)
				c.pass++ // the scope schedulePass opens
				a := c.Energy()
				for i := range cl.Nodes {
					switch {
					case c.nodeFailed(i):
						seen["failed"]++
					case c.pool.byNode[i].booting.has(i):
						seen["booting"]++
					case c.pool.byNode[i].asleep.has(i):
						seen[fmt.Sprintf("asleep S%d", a.SStateOf(i))]++
					}
					if c.pool.contains(i) && a.ThermalFloor(i) > 0 {
						seen["free under a thermal floor"]++
					}
				}
				for _, j := range jobs {
					// Random width order: a prefix is priced both by
					// extending the aggregates and by reading them back.
					for _, i := range rng.Perm(c.freeFor(j)) {
						n := i + 1
						if got, want := c.backfillEnd(j, n), walkBackfillEnd(c, j, n); got != want {
							t.Fatalf("aware=%v seed %d pass %d %s n=%d: backfillEnd %v, walk %v",
								classAware, seed, pass, shape(j), n, got, want)
						}
						if got, want := c.classClampSize(j, n), walkClassClampSize(c, j, n); got != want {
							t.Fatalf("aware=%v seed %d pass %d %s n=%d: classClampSize %d, walk %d",
								classAware, seed, pass, shape(j), n, got, want)
						}
						for _, p := range profiles {
							if got, want := c.prefixTake(j, n, p.Class), walkTake(c, j, n, p.Class); got != want {
								t.Fatalf("aware=%v seed %d pass %d %s n=%d: %s take %d, walk %d",
									classAware, seed, pass, shape(j), n, p.Class, got, want)
							}
						}
					}
				}
			}
		}
	}

	for _, state := range []string{"failed", "booting", "asleep S0", "asleep S1", "free under a thermal floor"} {
		if seen[state] == 0 {
			t.Errorf("no probe priced a pool with a node %s", state)
		}
	}

	// Staleness: a free node deepening from S0 to S1 moves neither the
	// pool version nor the clock, and a boot remainder shrinks with the
	// clock alone; the next pass must price the new state.
	t.Run("stale", func(t *testing.T) {
		cl, c := ladderController(2, []SleepRung{{AfterIdle: 30 * sim.Second, State: 0}, {AfterIdle: 90 * sim.Second, State: 1}})
		cl.K.RunUntil(40 * sim.Second) // both nodes at S0
		j := &Job{ReqNodes: 2, TimeLimit: 100 * sim.Second}
		check := func(what string) {
			t.Helper()
			c.pass++
			if got, want := c.backfillEnd(j, 2), walkBackfillEnd(c, j, 2); got != want {
				t.Fatalf("%s: backfillEnd %v, walk %v", what, got, want)
			}
		}
		check("S0")
		v := c.pool.version
		c.cfg.Energy.NodeSleep(0, 1) // the second rung fires at the pass's instant
		if c.pool.version != v {
			t.Fatal("a rung deepening bumped the pool version")
		}
		check("S1 at the same instant")

		c.preBoot(cl.Nodes[1], c.sleepGen[1])
		check("boot started")
		v = c.pool.version
		cl.K.RunUntil(cl.K.Now() + sim.Second) // inside the 2 s S0 wake
		if c.pool.version != v {
			t.Fatal("the clock alone bumped the pool version")
		}
		check("boot remainder 1 s on")
	})
}
