package slurm

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// elasticController builds an energy-accounted controller under the
// given elastic envelope (and optional idle ladder).
func elasticController(nodes int, el ElasticConfig, ladder []SleepRung) (*platform.Cluster, *Controller) {
	cl := testCluster(nodes)
	cfg := DefaultConfig()
	cfg.SleepLadder = ladder
	cfg.Elastic = &el
	return cl, NewController(cl, cfg)
}

// A Min=0 envelope scales an idle cluster all the way to zero draw, and
// the first arrival reboots it: the job completes after paying exactly
// one cold boot, and the adapt tick is the only wait on top.
func TestElasticMinZeroRebootsOnFirstArrival(t *testing.T) {
	cl, c := elasticController(1, ElasticConfig{Min: 0}, nil)
	if got := c.FleetNodes(); got != 0 {
		t.Fatalf("fleet %d at start, want 0", got)
	}
	if got := c.Energy().State(0); got != energy.Off {
		t.Fatalf("node state %v at start, want Off", got)
	}
	j := c.Submit(sleeperJob(c, "first", 1, 10*sim.Second))
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	// The allocation lands a scheduler pass after the adapt tick that
	// started the boot, so the job pays the boot remainder: one cold
	// boot, give or take the pass delay — and certainly not two.
	boot := testCluster(1).Nodes[0].Power.BootDelay()
	if got := j.ExecTime(); got < 10*sim.Second+boot-sim.Second || got > 10*sim.Second+boot {
		t.Fatalf("exec time %v, want ≈10s + the %v cold boot", got, boot)
	}
	if boots := c.Stats().Boots; boots != 1 {
		t.Fatalf("%d boots, want 1", boots)
	}
}

// The boot-storm limiter: a deficit beyond BootBurst is served across
// ticks, BootBurst provisions per tick; a deficit of exactly BootBurst
// is served in one tick with no second wave.
func TestElasticBootBurstLimiter(t *testing.T) {
	interval := 30 * sim.Second
	t.Run("above the cap", func(t *testing.T) {
		cl, c := elasticController(8, ElasticConfig{Min: 0, BootBurst: 3, Interval: interval}, nil)
		c.Submit(sleeperJob(c, "wide", 5, 10*sim.Second))
		cl.K.RunUntil(interval + sim.Second)
		if boots := c.Stats().Boots; boots != 3 {
			t.Fatalf("%d boots after one tick, want the burst cap 3", boots)
		}
		cl.K.RunUntil(2*interval + sim.Second)
		if boots := c.Stats().Boots; boots != 5 {
			t.Fatalf("%d boots after two ticks, want 5", boots)
		}
	})
	t.Run("exactly at the cap", func(t *testing.T) {
		cl, c := elasticController(8, ElasticConfig{Min: 0, BootBurst: 3, Interval: interval}, nil)
		c.Submit(sleeperJob(c, "fit", 3, 10*sim.Second))
		cl.K.RunUntil(4*interval + sim.Second)
		if boots := c.Stats().Boots; boots != 3 {
			t.Fatalf("%d boots, want exactly 3 (one full-burst tick, no echo)", boots)
		}
	})
}

// A provision racing a completion: a job goes pending, but a running
// job's completion frees awake nodes before the next adapt tick. The
// pending job must start on the freed capacity (no boot on its clock)
// and the tick must not provision nodes the queue no longer needs.
func TestElasticProvisionRacesCompletion(t *testing.T) {
	cl, c := elasticController(4, ElasticConfig{Min: 0, BootBurst: 8}, nil)
	a := c.Submit(sleeperJob(c, "a", 2, 100*sim.Second))
	var b *Job
	// a: provisioned at the 30s tick, boots 150s, runs 100s, ends at 280s.
	// b arrives at 275s: pending (both online nodes busy), its adapt tick
	// due at 305s — but a's completion at 280s beats the tick.
	cl.K.At(275*sim.Second, func() {
		b = c.Submit(sleeperJob(c, "b", 2, 10*sim.Second))
	})
	cl.K.Run()
	if a.State != StateCompleted || b.State != StateCompleted {
		t.Fatalf("job states a=%v b=%v", a.State, b.State)
	}
	if got := b.ExecTime(); got != 10*sim.Second {
		t.Fatalf("b exec time %v, want 10s on the freed awake nodes", got)
	}
	if boots := c.Stats().Boots; boots != 2 {
		t.Fatalf("%d boots, want 2: the tick after the completion must not re-provision", boots)
	}
}

// The decommission→reprovision life cycle under a ladder: scale-down
// retires a deep sleeper, the first arrival reprovisions it, and the
// fresh incarnation descends the ladder on its own schedule — timers
// armed against the retired life are dead (the generation bump in
// decommission/provision is what this pins).
func TestElasticDecommissionReprovisionFreshDescent(t *testing.T) {
	cl, c := elasticController(1, ElasticConfig{
		Min: 0, Interval: 30 * sim.Second, HoldDown: 30 * sim.Second,
	}, DefaultSleepLadder())
	a := c.Energy()
	j1 := c.Submit(sleeperJob(c, "j1", 1, 10*sim.Second))
	// Provisioned at 30s, boots 150s, runs 10s → free at 190s. Descent:
	// S0 at 310s, S1 at 790s; with the one-tick hold-down the adapt loop
	// retires it shortly after.
	cl.K.RunUntil(900 * sim.Second)
	if j1.State != StateCompleted {
		t.Fatalf("j1 state %v", j1.State)
	}
	if got := a.State(0); got != energy.Off {
		t.Fatalf("state %v at 900s, want Off after scale-to-zero", got)
	}
	if c.FleetNodes() != 0 {
		t.Fatalf("fleet %d at 900s, want 0", c.FleetNodes())
	}
	var j2 *Job
	cl.K.At(900*sim.Second, func() {
		j2 = c.Submit(sleeperJob(c, "j2", 1, 10*sim.Second))
	})
	// Reprovisioned at ≈930s, boots 150s, runs 10s → free at ≈1090s. The
	// fresh descent reaches the shallow rung at ≈1210s.
	cl.K.RunUntil(1150 * sim.Second)
	if j2.State != StateCompleted {
		t.Fatalf("j2 state %v", j2.State)
	}
	if got := a.State(0); got != energy.Idle {
		t.Fatalf("state %v at 1150s, want Idle before the fresh descent", got)
	}
	cl.K.RunUntil(1250 * sim.Second)
	if a.State(0) != energy.Sleeping || a.SStateOf(0) != 0 {
		t.Fatalf("state %v S%d at 1250s, want the fresh shallow rung", a.State(0), a.SStateOf(0))
	}
}

// wakePreview prices the transition already in flight, not the
// worst-case rung: a node halfway through its wake quotes the remainder,
// so reservation pricing (backfillEnd) never double-counts a boot the
// clock is already paying.
func TestWakePreviewPricesInFlightBoot(t *testing.T) {
	cl, c := ladderController(1, DefaultSleepLadder())
	cl.K.RunUntil(800 * sim.Second) // deep rung (30s wake)
	a := c.Energy()
	if got := c.wakePreview(cl.Nodes[0]); got != a.WakePreview(0) {
		t.Fatalf("idle preview %v, want the rung's %v", got, a.WakePreview(0))
	}
	// Start the wake by hand and advance partway: the preview must fall
	// to the remainder.
	w := a.StartBoot(0)
	c.bootUntil[0] = cl.K.Now() + w
	c.scheduleBootDone(cl.Nodes[0])
	cl.K.RunUntil(810 * sim.Second)
	if got, want := c.wakePreview(cl.Nodes[0]), w-10*sim.Second; got != want {
		t.Fatalf("mid-boot preview %v, want the %v remainder", got, want)
	}
}
