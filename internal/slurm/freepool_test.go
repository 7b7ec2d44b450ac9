package slurm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

func TestBitsetOps(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 1, 63, 64, 65, 128, 129} {
		if b.has(i) {
			t.Fatalf("fresh bitset has %d", i)
		}
		b.set(i)
		if !b.has(i) {
			t.Fatalf("set %d not visible", i)
		}
	}
	b.clear(64)
	if b.has(64) || !b.has(63) || !b.has(65) {
		t.Fatal("clear(64) disturbed neighbors")
	}
}

func TestFreePoolCounts(t *testing.T) {
	cl := mixedTestCluster(3, 5)
	p := newFreePool(cl.Nodes)
	if p.total != 8 {
		t.Fatalf("total %d", p.total)
	}
	if got := p.countFor(&Job{ReqClass: fastClass}); got != 3 {
		t.Fatalf("fast count %d", got)
	}
	if got := p.countFor(&Job{ReqClass: "gpu"}); got != 0 {
		t.Fatalf("unknown class count %d", got)
	}
	v := p.version
	p.remove(0)
	p.remove(0) // idempotent
	if p.total != 7 || p.countFor(&Job{ReqClass: fastClass}) != 2 {
		t.Fatalf("after remove: total %d fast %d", p.total, p.countFor(&Job{ReqClass: fastClass}))
	}
	if p.version == v {
		t.Fatal("remove did not bump the version")
	}
	p.markAsleep(4)
	if p.total != 7 || p.contains(4) != true {
		t.Fatal("sleeping node left the pool")
	}
	p.remove(4) // remove from the sleeping half
	if p.total != 6 || p.contains(4) {
		t.Fatal("sleeping node not removable")
	}
	p.add(0)
	p.add(0) // idempotent
	if p.total != 7 || !p.contains(0) {
		t.Fatal("add failed")
	}
}

// referencePickNodes is the seed implementation of the allocation order:
// the eligible free nodes under a stable sort by the affinity comparator.
// The indexed pool's tiered bitmap merge must reproduce it bit for bit;
// TestPickNodesMatchesReference fuzzes the two against each other.
func referencePickNodes(c *Controller, j *Job, n int) []*platform.Node {
	pool := c.eligibleFree(j)
	if n > len(pool) {
		panic(fmt.Sprintf("slurm: allocating %d of %d eligible free nodes", n, len(pool)))
	}
	pref := ""
	if j != nil && j.PrefClass != "" {
		inPref := 0
		for _, nd := range pool {
			if nd.Class() == j.PrefClass {
				inPref++
			}
		}
		if inPref >= n {
			pref = j.PrefClass
		}
	}
	anchor, anchored := c.pickAnchor(j)
	byAffinity := func(a, b *platform.Node) bool {
		if pref != "" {
			ma, mb := a.Class() == pref, b.Class() == pref
			if ma != mb {
				return ma
			}
		}
		if anchored {
			ma, mb := a.Speed() == anchor, b.Speed() == anchor
			if ma != mb {
				return ma
			}
		}
		if c.cfg.ClassAware {
			if ca, cb := a.EnergyPerWork(), b.EnergyPerWork(); ca != cb {
				return ca < cb
			}
		}
		aa, ab := c.cfg.Energy.WakePreview(a.Index) == 0, c.cfg.Energy.WakePreview(b.Index) == 0
		if aa != ab {
			return aa
		}
		return false
	}
	sort.SliceStable(pool, func(a, b int) bool { return byAffinity(pool[a], pool[b]) })
	if c.cfg.ClassAware && !anchored && pref == "" && n > 0 {
		anchor, anchored = pool[n-1].Speed(), true
		sort.SliceStable(pool, func(a, b int) bool { return byAffinity(pool[a], pool[b]) })
	}
	return pool[:n:n]
}

// gpuProfile is a third machine class for the placement fuzz: same P0
// speed as the reference class (exercising anchor-match ties across
// distinct classes) at a different energy cost.
func gpuProfile() energy.Profile {
	p := energy.DefaultProfile()
	p.Class = "gpu"
	p.IdleW = 200
	p.PStates = []energy.PState{{PowerW: 500, Speed: 1.0}, {PowerW: 300, Speed: 0.7}}
	return p
}

// TestPickNodesMatchesReference fuzzes the indexed free pool's tiered
// bitmap merge against the seed implementation's stable affinity sort
// across randomized pool states (allocations, crashes, sleeping nodes)
// and job shapes (pinned, preferring, indifferent, anchored expansions),
// with and without ClassAware and an idle sleep ladder (the "+energy"
// modes).
func TestPickNodesMatchesReference(t *testing.T) {
	for _, mode := range []struct {
		name       string
		classAware bool
		energy     bool
	}{
		{"classaware+energy", true, true},
		{"classaware", true, false},
		{"blind+energy", false, true},
		{"blind", false, false},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				cfg := platform.Marenostrum3()
				cfg.Nodes = 48
				cfg.Classes = []platform.MachineClass{
					{Count: 16, Power: energy.DefaultProfile()},
					{Count: 16, Power: energy.EfficiencyProfile()},
					{Count: 8, Power: gpuProfile()},
					// the remaining 8 nodes fall back to the default class
				}
				cl := platform.New(cfg)
				scfg := DefaultConfig()
				scfg.ClassAware = mode.classAware
				if mode.energy {
					scfg.SleepLadder = []SleepRung{{AfterIdle: 30 * sim.Second}}
				}
				// A few scripted crashes punch holes in the pool; the
				// failed nodes stay out past the probe.
				crashes := make([]sim.Time, cfg.Nodes)
				for i := 0; i < 3; i++ {
					crashes[rng.Intn(cfg.Nodes)] = sim.Time(1+rng.Intn(89)) * sim.Second
				}
				scfg.Faults = &stubFaults{crash: crashes, repair: sim.Hour}
				c := NewController(cl, scfg)

				// Churn the pool: some holders, the crashes, and (with
				// energy) idle time so part of the pool falls asleep.
				var holders []*Job
				for i := 0; i < 4; i++ {
					h := sleeperJob(c, fmt.Sprintf("h%d", i), 1+rng.Intn(6), sim.Hour)
					if rng.Intn(2) == 0 {
						h.ReqClass = []string{fastClass, slowClass, "gpu"}[rng.Intn(3)]
					}
					c.Submit(h)
					holders = append(holders, h)
				}
				cl.K.RunUntil(sim.Time(rng.Intn(90)) * sim.Second)

				jobs := []*Job{
					nil,
					{},
					{ReqClass: fastClass},
					{ReqClass: slowClass},
					{ReqClass: "gpu"},
					{PrefClass: fastClass},
					{PrefClass: slowClass},
					{PrefClass: "gpu"},
					{ReqClass: fastClass, PrefClass: fastClass},
				}
				if len(holders[0].Alloc()) > 0 {
					jobs = append(jobs, holders[0]) // anchored: has an allocation
				}
				for _, j := range jobs {
					limit := c.freeFor(j)
					for _, n := range []int{0, 1, limit / 2, limit} {
						want := referencePickNodes(c, j, n)
						got := c.pickNodes(j, n)
						if len(got) != len(want) {
							t.Fatalf("seed %d job %+v n=%d: %d nodes, want %d", seed, j, n, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("seed %d job %+v n=%d: pick[%d]=%s, want %s",
									seed, j, n, i, got[i].Name, want[i].Name)
							}
						}
						// The memoized path must agree with a fresh merge.
						again := c.pickNodes(j, n)
						for i := range want {
							if again[i] != want[i] {
								t.Fatalf("seed %d job %+v n=%d: cached pick diverged", seed, j, n)
							}
						}
					}
				}
			}
		})
	}
}
