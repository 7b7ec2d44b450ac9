package slurm

import (
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// ladderController builds a controller whose idle nodes descend the
// given S-state ladder.
func ladderController(nodes int, ladder []SleepRung) (*platform.Cluster, *Controller) {
	cl := testCluster(nodes)
	cfg := DefaultConfig()
	cfg.SleepLadder = ladder
	return cl, NewController(cl, cfg)
}

func TestLadderValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ladder []SleepRung
		ok     bool
	}{
		{"single rung", []SleepRung{{AfterIdle: 30 * sim.Second, State: 0}}, true},
		{"two rungs", []SleepRung{{AfterIdle: 30 * sim.Second, State: 0}, {AfterIdle: 90 * sim.Second, State: 1}}, true},
		{"zero idle time", []SleepRung{{AfterIdle: 0, State: 0}}, false},
		{"negative state", []SleepRung{{AfterIdle: 30 * sim.Second, State: -1}}, false},
		{"non-increasing times", []SleepRung{{AfterIdle: 30 * sim.Second, State: 0}, {AfterIdle: 30 * sim.Second, State: 1}}, false},
		{"non-deepening states", []SleepRung{{AfterIdle: 30 * sim.Second, State: 1}, {AfterIdle: 90 * sim.Second, State: 1}}, false},
		{"shallower later rung", []SleepRung{{AfterIdle: 30 * sim.Second, State: 1}, {AfterIdle: 90 * sim.Second, State: 0}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateLadder(tc.ladder)
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid ladder accepted")
			}
		})
	}
}

// Rung selection: the rung a node occupies is a function of how long it
// has idled, and the wake cost quoted to the scheduler is the occupied
// rung's, not the ladder bottom's.
func TestLadderRungSelection(t *testing.T) {
	ladder := []SleepRung{
		{AfterIdle: 30 * sim.Second, State: 0},
		{AfterIdle: 90 * sim.Second, State: 1},
	}
	p := energy.DefaultProfile()
	for _, tc := range []struct {
		name     string
		idleFor  sim.Time
		state    energy.NodeState
		sstate   int
		wantWake sim.Time
	}{
		{"before the first rung", 29 * sim.Second, energy.Idle, 0, 0},
		{"on the shallow rung", 31 * sim.Second, energy.Sleeping, 0, p.WakeLatency(0)},
		{"still shallow before the drop", 89 * sim.Second, energy.Sleeping, 0, p.WakeLatency(0)},
		{"on the deep rung", 91 * sim.Second, energy.Sleeping, 1, p.WakeLatency(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, c := ladderController(1, ladder)
			cl.K.RunUntil(tc.idleFor)
			a := c.Energy()
			if got := a.State(0); got != tc.state {
				t.Fatalf("state %v, want %v", got, tc.state)
			}
			if tc.state == energy.Sleeping {
				if got := a.SStateOf(0); got != tc.sstate {
					t.Fatalf("S-state %d, want %d", got, tc.sstate)
				}
			}
			if got := a.WakePreview(0); got != tc.wantWake {
				t.Fatalf("wake preview %v, want %v", got, tc.wantWake)
			}
		})
	}
}

// The deep rung really costs more: a job allocated onto a node that
// sank to the ladder bottom launches after the DEEP wake latency.
func TestLadderDeepWakeDelaysLaunch(t *testing.T) {
	ladder := []SleepRung{
		{AfterIdle: 10 * sim.Second, State: 0},
		{AfterIdle: 40 * sim.Second, State: 1},
	}
	cl, c := ladderController(1, ladder)
	var j *Job
	cl.K.At(100*sim.Second, func() {
		j = c.Submit(sleeperJob(c, "late", 1, 20*sim.Second))
	})
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	prof := energy.DefaultProfile()
	deep := prof.WakeLatency(1)
	if got := j.ExecTime(); got != 20*sim.Second+deep {
		t.Fatalf("exec time %v, want 20s + the deep rung's %v wake", got, deep)
	}
}

// An allocation between rungs invalidates the chain; once released the
// node restarts the descent from the top.
func TestLadderRestartsAfterAllocation(t *testing.T) {
	ladder := []SleepRung{
		{AfterIdle: 30 * sim.Second, State: 0},
		{AfterIdle: 90 * sim.Second, State: 1},
	}
	cl, c := ladderController(1, ladder)
	// Job arrives at 40 s (node on the shallow rung) and runs 10 s.
	cl.K.At(40*sim.Second, func() {
		c.Submit(sleeperJob(c, "j", 1, 10*sim.Second))
	})
	// The node frees at ≈52 s (2 s shallow wake + 10 s run). The deep
	// rung must not fire at the stale 90 s mark: the descent restarts,
	// shallow ≈82 s, deep ≈142 s.
	cl.K.RunUntil(95 * sim.Second)
	a := c.Energy()
	if got := a.SStateOf(0); a.State(0) != energy.Sleeping || got != 0 {
		t.Fatalf("state %v S%d at t=95s, want the restarted shallow rung", a.State(0), got)
	}
	cl.K.RunUntil(150 * sim.Second)
	if got := a.SStateOf(0); got != 1 {
		t.Fatalf("S%d at t=150s, want the deep rung", got)
	}
}

// A one-rung ladder is the single idle-timeout drop: idle nodes sink
// straight to the rung's S-state and stay there.
func TestOneRungLadderDropsOnceAndHolds(t *testing.T) {
	cl := testCluster(2)
	cfg := DefaultConfig()
	cfg.SleepLadder = []SleepRung{{AfterIdle: 30 * sim.Second, State: 1}}
	c := NewController(cl, cfg)
	cl.K.RunUntil(31 * sim.Second)
	a := c.Energy()
	if a.SleepingNodes() != 2 || a.SStateOf(0) != 1 {
		t.Fatalf("%d sleeping, S%d; want 2 nodes on S1", a.SleepingNodes(), a.SStateOf(0))
	}
	// And it stays there: no deeper rung exists.
	cl.K.RunUntil(sim.Hour)
	if a.SStateOf(0) != 1 {
		t.Fatalf("S%d after an hour", a.SStateOf(0))
	}
}

// thermalCluster builds a cluster whose nodes carry the test envelope
// (τ=200 s, throttle 95 °C, restore 70 °C; P0 equilibrates at 107.5 °C
// and P1 at 90 °C).
func thermalCluster(nodes int) *platform.Cluster {
	cfg := platform.Marenostrum3()
	cfg.Nodes = nodes
	cfg.Power = energy.WithThermal(energy.DefaultProfile(),
		energy.Thermal{CapacityJPerC: 800, ConductanceWPerC: 4, AmbientC: 25, ThrottleC: 95, RestoreC: 70})
	return platform.New(cfg)
}

// A sustained job crosses the envelope: the controller logs the
// throttle against the owning job, meters thermal_throttled_s into its
// accounting record, and emits the extra CSV column.
func TestThermalThrottleAccountedToJob(t *testing.T) {
	cl := thermalCluster(2)
	cfg := DefaultConfig()
	c := NewController(cl, cfg)
	var throttled []int
	c.SubscribeEvents(func(ev Event) {
		if ev.Kind == EvThermalThrottle {
			throttled = append(throttled, ev.JobID)
		}
	})
	j := c.Submit(sleeperJob(c, "hot", 2, 1000*sim.Second))
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	throttles := len(throttled)
	for _, id := range throttled {
		if id != j.ID {
			t.Fatalf("throttle attributed to job %d, want %d", id, j.ID)
		}
	}
	// Both nodes heat identically: two throttle events at ≈377.5 s.
	if throttles != 2 {
		t.Fatalf("%d thermal throttle events, want 2", throttles)
	}
	recs := c.Accounting()
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	// Each node throttled for ≈1000-377.5 s ⇒ ≈1245 node-seconds.
	if recs[0].ThermalThrottledSec < 1200 || recs[0].ThermalThrottledSec > 1300 {
		t.Fatalf("thermal_throttled_s %.1f, want ≈1245", recs[0].ThermalThrottledSec)
	}
	var b strings.Builder
	if err := c.WriteAccountingCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "thermal_throttled_s") {
		t.Fatalf("CSV missing the thermal column:\n%s", b.String())
	}
}

// Without an envelope the CSV keeps its historical shape: the thermal
// column only exists on thermally-modeled clusters.
func TestAccountingCSVOmitsThermalColumnWhenDisabled(t *testing.T) {
	cl, c := energyController(2, 0)
	c.Submit(sleeperJob(c, "j", 1, 10*sim.Second))
	cl.K.Run()
	var b strings.Builder
	if err := c.WriteAccountingCSV(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "thermal_throttled_s") {
		t.Fatal("thermal column present without a thermal envelope")
	}
}

// A thermally throttled node stretches the owning job's release
// estimate: the reservation pricing reads the effective (floored)
// speed, so backfill decisions see the real machine.
func TestThermalFloorRepricesJobSpeed(t *testing.T) {
	cl := thermalCluster(1)
	cfg := DefaultConfig()
	c := NewController(cl, cfg)
	j := c.Submit(sleeperJob(c, "hot", 1, 1000*sim.Second))
	cl.K.RunUntil(100 * sim.Second)
	if got := c.jobSpeed(j); got != 1.0 {
		t.Fatalf("speed %.2f before the crossing, want 1.0", got)
	}
	cl.K.RunUntil(400 * sim.Second) // crossing at ≈377.5 s
	prof := energy.DefaultProfile()
	if got, want := c.jobSpeed(j), prof.SpeedAt(1); got != want {
		t.Fatalf("speed %.2f after the thermal throttle, want the floor's %.2f", got, want)
	}
}
