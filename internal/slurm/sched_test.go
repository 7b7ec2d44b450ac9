package slurm

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// mixedTestCluster builds a heterogeneous cluster: fast reference-class
// nodes first, then efficiency-class nodes.
func mixedTestCluster(fast, slow int) *platform.Cluster {
	cfg := platform.Marenostrum3()
	cfg.Nodes = fast + slow
	cfg.Classes = []platform.MachineClass{
		{Count: fast, Power: energy.DefaultProfile()},
		{Count: slow, Power: energy.EfficiencyProfile()},
	}
	return platform.New(cfg)
}

var (
	fastClass = energy.DefaultProfile().Class
	slowClass = energy.EfficiencyProfile().Class
)

func TestStartSizeBoundaries(t *testing.T) {
	cl := testCluster(8)
	c := NewController(cl, DefaultConfig())
	cases := []struct {
		name          string
		req, min, max int
		resizer       bool
		free          int
		wantN         int
		wantOK        bool
	}{
		{name: "rigid exact fit", req: 4, min: 4, max: 4, free: 4, wantN: 4, wantOK: true},
		{name: "rigid short one node", req: 5, min: 5, max: 5, free: 4, wantOK: false},
		{name: "rigid zero free", req: 1, min: 1, max: 1, free: 0, wantOK: false},
		{name: "moldable below min", req: 8, min: 4, max: 8, free: 3, wantOK: false},
		{name: "moldable at min boundary", req: 8, min: 4, max: 8, free: 4, wantN: 4, wantOK: true},
		{name: "moldable mid range", req: 8, min: 2, max: 8, free: 5, wantN: 5, wantOK: true},
		{name: "moldable clamped at max", req: 8, min: 2, max: 8, free: 100, wantN: 8, wantOK: true},
		{name: "moldable min equals one", req: 8, min: 1, max: 8, free: 1, wantN: 1, wantOK: true},
		{name: "resizer takes exactly req", req: 2, min: 1, max: 8, resizer: true, free: 4, wantN: 2, wantOK: true},
		{name: "resizer short", req: 5, min: 1, max: 8, resizer: true, free: 4, wantOK: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := &Job{ReqNodes: tc.req, MinNodes: tc.min, MaxNodes: tc.max, Resizer: tc.resizer}
			n, ok := c.startSize(j, tc.free)
			if ok != tc.wantOK || (ok && n != tc.wantN) {
				t.Fatalf("startSize(%+v, free=%d) = %d,%v; want %d,%v", j, tc.free, n, ok, tc.wantN, tc.wantOK)
			}
		})
	}
}

// TestFreePoolsWithFailedAndSleeping drives the eligible-free
// accounting through failed and sleeping nodes: a crashed free node
// leaves every pool, a sleeping node stays allocatable (it wakes on
// allocation), and hard class constraints filter per job.
func TestFreePoolsWithFailedAndSleeping(t *testing.T) {
	cl := mixedTestCluster(2, 2)
	cfg := DefaultConfig()
	cfg.SleepLadder = []SleepRung{{AfterIdle: 10 * sim.Second}}
	// Init draws in node order: fast node 0 crashes at 20 s and stays in
	// repair for the rest of the test.
	cfg.Faults = &stubFaults{crash: []sim.Time{20 * sim.Second}, repair: 1000 * sim.Second}
	c := NewController(cl, cfg)

	// Let the whole idle cluster fall asleep; then one fast node crashes.
	cl.K.RunUntil(19 * sim.Second)
	if n := c.Energy().SleepingNodes(); n != 4 {
		t.Fatalf("%d nodes asleep, want 4", n)
	}
	cl.K.RunUntil(21 * sim.Second)
	if !c.nodeFailed(0) {
		t.Fatal("node 0 did not crash")
	}

	cases := []struct {
		name     string
		job      *Job
		wantFree int
	}{
		{name: "unconstrained sees all healthy", job: &Job{}, wantFree: 3},
		{name: "nil job sees all healthy", job: nil, wantFree: 3},
		{name: "fast-pinned sees surviving fast node", job: &Job{ReqClass: fastClass}, wantFree: 1},
		{name: "slow-pinned sees both slow nodes", job: &Job{ReqClass: slowClass}, wantFree: 2},
		{name: "unknown class sees nothing", job: &Job{ReqClass: "gpu"}, wantFree: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.freeFor(tc.job); got != tc.wantFree {
				t.Fatalf("freeFor = %d, want %d", got, tc.wantFree)
			}
			if got := len(c.eligibleFree(tc.job)); got != tc.wantFree {
				t.Fatalf("eligibleFree = %d nodes, want %d", got, tc.wantFree)
			}
		})
	}

	// Sleeping nodes are still allocatable: a 3-node unconstrained job
	// must start on the 3 healthy (sleeping) nodes after their wake
	// latency.
	j := c.Submit(sleeperJob(c, "wakes", 3, 10*sim.Second))
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job on sleeping pool did not complete: %v", j.State)
	}
}

// TestQueueOrderMatchesPriorityFloat pins the claim the sorted pending
// queue rests on: the static key (queueRank desc, SubmitTime asc, ID
// asc) orders jobs exactly as the seed's float priority comparator did,
// at any clock value — including boosted/resizer jobs whose float
// priorities collapse to ties within one ulp of the 1e12 boost.
func TestQueueOrderMatchesPriorityFloat(t *testing.T) {
	cl := testCluster(2)
	c := NewController(cl, DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	for _, now := range []sim.Time{0, 90 * sim.Second, 1000 * sim.Hour} {
		cl.K.RunUntil(now)
		var jobs []*Job
		for i := 0; i < 200; i++ {
			jobs = append(jobs, &Job{
				ID:         i + 1,
				SubmitTime: sim.Time(rng.Intn(5)) * 20 * sim.Second,
				Boosted:    rng.Intn(3) == 0,
				Resizer:    rng.Intn(5) == 0,
			})
		}
		byFloat := append([]*Job(nil), jobs...)
		sort.SliceStable(byFloat, func(i, k int) bool {
			pi, pk := c.priority(byFloat[i]), c.priority(byFloat[k])
			if pi != pk {
				return pi > pk
			}
			if byFloat[i].SubmitTime != byFloat[k].SubmitTime {
				return byFloat[i].SubmitTime < byFloat[k].SubmitTime
			}
			return byFloat[i].ID < byFloat[k].ID
		})
		byKey := append([]*Job(nil), jobs...)
		sort.SliceStable(byKey, func(i, k int) bool { return queueBefore(byKey[i], byKey[k]) })
		for i := range byFloat {
			if byFloat[i] != byKey[i] {
				t.Fatalf("now=%v: order diverges at %d: float says job %d, key says job %d",
					now, i, byFloat[i].ID, byKey[i].ID)
			}
		}
	}
}

// TestReservationClassConstrainedBlockedJob pins the EASY shadow-time
// computation for a class-pinned blocked job: only releases of its own
// class may seat it, so the earlier end of the other class's job must
// not pull the shadow time forward.
func TestReservationClassConstrainedBlockedJob(t *testing.T) {
	cl := mixedTestCluster(2, 2)
	c := NewController(cl, DefaultConfig())

	fastHolder := sleeperJob(c, "fast-holder", 2, 1000*sim.Second)
	fastHolder.ReqClass = fastClass
	fastHolder.TimeLimit = 1000 * sim.Second
	slowHolder := sleeperJob(c, "slow-holder", 2, 50*sim.Second)
	slowHolder.ReqClass = slowClass
	slowHolder.TimeLimit = 50 * sim.Second
	c.Submit(fastHolder)
	c.Submit(slowHolder)
	cl.K.RunUntil(2 * sim.Second)
	if fastHolder.State != StateRunning || slowHolder.State != StateRunning {
		t.Fatalf("holders not running (%v, %v)", fastHolder.State, slowHolder.State)
	}

	blocked := &Job{Name: "pinned", ReqNodes: 2, MinNodes: 2, MaxNodes: 2, ReqClass: fastClass, TimeLimit: sim.Hour}
	shadow, extra := c.reservation(blocked)
	// The slow holder ends first (t≈50 s stretched by its class speed),
	// but its nodes cannot seat a fast-pinned job: the shadow must wait
	// for the fast holder's limit at t≈1000 s.
	if shadow < 900*sim.Second {
		t.Fatalf("shadow %v pulled forward by a wrong-class release", shadow)
	}
	if extra != 0 {
		t.Fatalf("extra = %d eligible nodes at shadow time, want 0", extra)
	}

	// An unconstrained 2-node job, by contrast, can take the slow pair:
	// its shadow is the slow holder's stretched limit, well before the
	// fast holder ends.
	anyJob := &Job{Name: "any", ReqNodes: 2, MinNodes: 2, MaxNodes: 2, TimeLimit: sim.Hour}
	shadow, _ = c.reservation(anyJob)
	if shadow > 200*sim.Second {
		t.Fatalf("unconstrained shadow %v, want the slow holders' release (~83 s)", shadow)
	}
}

// TestFastPreferringJobLandsOnFastNodes pins the mixed-fleet acceptance
// behavior: with both classes entirely free, a job that soft-prefers the
// fast class is allocated fast nodes only.
func TestFastPreferringJobLandsOnFastNodes(t *testing.T) {
	cl := mixedTestCluster(4, 4)
	cfg := DefaultConfig()
	cfg.ClassAware = true
	c := NewController(cl, cfg)

	j := sleeperJob(c, "wants-fast", 3, 10*sim.Second)
	j.PrefClass = fastClass
	c.Submit(j)
	cl.K.RunUntil(2 * sim.Second)
	if j.State != StateRunning {
		t.Fatalf("job not running: %v", j.State)
	}
	for _, nd := range j.Alloc() {
		if nd.Class() != fastClass {
			t.Fatalf("node %d is %s, want every node %s", nd.Index, nd.Class(), fastClass)
		}
	}
}

// TestClassAffinityPlacementTable drives pickNodes through the remaining
// affinity cases on a half-free mixed fleet.
func TestClassAffinityPlacementTable(t *testing.T) {
	cases := []struct {
		name       string
		classAware bool
		job        *Job
		n          int
		wantClass  string
	}{
		{name: "slow-preferring lands slow", classAware: true, job: &Job{PrefClass: slowClass}, n: 2, wantClass: slowClass},
		{name: "fast-pinned lands fast", classAware: true, job: &Job{ReqClass: fastClass}, n: 2, wantClass: fastClass},
		{name: "indifferent steered to cheap class", classAware: true, job: &Job{}, n: 2, wantClass: slowClass},
		{name: "oversized preference falls back pure", classAware: true, job: &Job{PrefClass: fastClass}, n: 5, wantClass: slowClass},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := mixedTestCluster(4, 8)
			cfg := DefaultConfig()
			cfg.ClassAware = tc.classAware
			c := NewController(cl, cfg)
			for _, nd := range c.pickNodes(tc.job, tc.n) {
				if nd.Class() != tc.wantClass {
					t.Fatalf("got a %s node, want all %s", nd.Class(), tc.wantClass)
				}
			}
		})
	}
}
