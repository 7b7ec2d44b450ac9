package core

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

func TestSmallFixedWorkloadCompletes(t *testing.T) {
	specs := workload.Generate(workload.Preliminary(8, 0, 1))
	cfg := DefaultConfig()
	cfg.Nodes = 20
	res := RunWorkload(cfg, specs)
	if res.Jobs != 8 {
		t.Fatalf("jobs %d", res.Jobs)
	}
	if res.Makespan <= 0 || res.AvgExec <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.Resizes != 0 {
		t.Fatalf("fixed workload recorded %d resizes", res.Resizes)
	}
}

func TestSmallFlexibleWorkloadBeatsFixed(t *testing.T) {
	base := workload.Generate(workload.Preliminary(25, 1, 42))
	cfg := DefaultConfig()
	cfg.Nodes = 20

	fixed := RunWorkload(cfg, workload.SetFlexible(base, false))
	flex := RunWorkload(cfg, workload.SetFlexible(base, true))

	if flex.Resizes == 0 {
		t.Fatal("flexible run never resized")
	}
	// The headline claim, scaled down: the flexible workload must not
	// finish later than the fixed one (it should finish earlier). A
	// single small sample can be noisy on waits, so the makespan is the
	// asserted quantity.
	if flex.Makespan > fixed.Makespan {
		t.Fatalf("flexible makespan %v exceeds fixed %v", flex.Makespan, fixed.Makespan)
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	specs := workload.Generate(workload.Preliminary(10, 1, 7))
	cfg := DefaultConfig()
	cfg.Nodes = 20
	a := RunWorkload(cfg, specs)
	b := RunWorkload(cfg, specs)
	if a.Makespan != b.Makespan || a.AvgWait != b.AvgWait || a.UtilRate != b.UtilRate {
		t.Fatalf("two identical runs diverged: %+v vs %+v", a, b)
	}
}

func TestAppConfigMapping(t *testing.T) {
	s := NewSystem(DefaultConfig())
	fs := s.AppConfig(workload.Spec{Class: apps.ClassFS, Nodes: 4, Runtime: 100 * sim.Second, Flexible: true})
	// Runtime 100s over 25 iterations at the submitted size of 4 nodes:
	// step = 4s there, and 16s sequentially (perfect linear scaling).
	if fs.Model.StepTime(4) != 4*sim.Second {
		t.Fatalf("FS step at submitted size = %v, want 4s", fs.Model.StepTime(4))
	}
	if fs.Model.StepTime(1) != 16*sim.Second {
		t.Fatalf("FS sequential step = %v, want 16s", fs.Model.StepTime(1))
	}
	cg := s.AppConfig(workload.Spec{Class: apps.ClassCG, Nodes: 32, Flexible: true})
	if !cg.Malleable || cg.SchedPeriod != 15*sim.Second {
		t.Fatalf("CG config %+v", cg)
	}
	rigid := s.AppConfig(workload.Spec{Class: apps.ClassCG, Nodes: 32, Flexible: false})
	if rigid.Malleable {
		t.Fatal("fixed spec produced malleable config")
	}
}

func TestMaxProcsClampedToCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 16
	s := NewSystem(cfg)
	cg := s.AppConfig(workload.Spec{Class: apps.ClassCG, Nodes: 16, Flexible: true})
	if cg.MaxProcs != 16 {
		t.Fatalf("MaxProcs %d, want clamp to 16", cg.MaxProcs)
	}
}

func TestMoldableSubmissionExtension(t *testing.T) {
	specs := workload.Generate(workload.Preliminary(6, 1, 3))
	cfg := DefaultConfig()
	cfg.Nodes = 20
	cfg.MoldableSubmissions = true
	s := NewSystem(cfg)
	s.SubmitAll(specs)
	res := s.Run()
	if res.Jobs != 6 {
		t.Fatalf("jobs %d", res.Jobs)
	}
	for _, j := range s.Jobs() {
		if j.State != slurm.StateCompleted {
			t.Fatalf("job %s state %v", j.Name, j.State)
		}
	}
}

func TestConfigCombinations(t *testing.T) {
	// Every combination of the orthogonal switches must complete a
	// small workload without deadlock (policy values are covered by
	// TestPolicyClassAwareMatrix).
	base := workload.Generate(workload.Preliminary(8, 1, 5))
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"async", func(c *Config) { c.Async = true }},
		{"moldable", func(c *Config) { c.MoldableSubmissions = true }},
		{"cr", func(c *Config) { c.CRTransfer = true }},
		{"async+moldable", func(c *Config) { c.Async = true; c.MoldableSubmissions = true }},
		{"cr+moldable", func(c *Config) { c.CRTransfer = true; c.MoldableSubmissions = true }},
		{"factor4", func(c *Config) { c.FactorOverride = 4 }},
		{"inhibitor", func(c *Config) { c.SchedPeriod = 30 * sim.Second }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Nodes = 20
			tc.mut(&cfg)
			res := RunWorkload(cfg, base)
			if res.Jobs != 8 {
				t.Fatalf("%s: %d jobs", tc.name, res.Jobs)
			}
			if res.Makespan <= 0 {
				t.Fatalf("%s: degenerate makespan", tc.name)
			}
		})
	}
}

func TestUtilizationRateWithinBounds(t *testing.T) {
	specs := workload.Generate(workload.Preliminary(10, 0, 9))
	cfg := DefaultConfig()
	cfg.Nodes = 20
	res := RunWorkload(cfg, specs)
	if res.UtilRate <= 0 || res.UtilRate > 100 {
		t.Fatalf("utilization %.2f%% out of range", res.UtilRate)
	}
}

func TestEnergyWithDeepSleepCompletesAndMeters(t *testing.T) {
	// Regression: flexible jobs expanding onto deep-sleeping nodes
	// (30 s wake, longer than the runtime's 10 s expand timeout) used
	// to crash the dance's abort path. The run must complete and carry
	// consistent energy measures.
	specs := workload.Generate(workload.Preliminary(10, 1, 7))
	cfg := DefaultConfig()
	cfg.Nodes = 20
	cfg.SleepLadder = []slurm.SleepRung{{AfterIdle: 30 * sim.Second, State: 1}} // deep sleep: 30 s wake latency
	sys := NewSystem(cfg)
	sys.SubmitAll(specs)
	res := sys.Run()
	if res.Jobs != 10 || res.Resizes == 0 {
		t.Fatalf("jobs %d resizes %d", res.Jobs, res.Resizes)
	}
	if res.EnergyJ <= 0 || res.AvgPowerW <= 0 {
		t.Fatalf("energy not metered: %+v", res)
	}
	if sys.Energy.Wakes() == 0 {
		t.Fatal("deep sleep never exercised a wake")
	}
	// The attribution partition holds at the end of the run.
	a := sys.Energy
	if diff := a.AttributedJoules() + a.UnattributedJoules() - a.TotalJoules(); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("attribution leak: %.6f J", diff)
	}
}

// Regression for the -exp scale finding: a wide class-pinned flexible
// FS job used to be molded down to whatever sliver of its class was
// free (as little as 1 node) and, under a deep queue, never regrew —
// Algorithm 1's expansions need free nodes a deep queue never leaves,
// so the job crawled at 1/width of its submitted speed for its whole
// life. FS-style apps declare no Table I preferred size, which let the
// molding floor collapse to MinProcs=1; they now carry a
// preferred-size floor (their submitted width — FS scales linearly, so
// that is its sweet spot) that classClampSize refuses to mold below.
func TestClassAwareMoldingPreferredFloor(t *testing.T) {
	pc := platform.Marenostrum3()
	pc.Nodes = 16
	pc.Classes = []platform.MachineClass{
		{Count: 8, Power: energy.DefaultProfile()},
		{Count: 8, Power: energy.EfficiencyProfile()},
	}
	cfg := DefaultConfig()
	cfg.Platform = &pc
	cfg.ClassAware = true
	sys := NewSystem(cfg)

	xeon := energy.DefaultProfile().Class
	// Two rigid pinned jobs fill the Xeon class with staggered ends (so
	// only half the class frees at t≈200), and a stream of rigid 1-node
	// pinned jobs keeps the queue deep: the molded wide job can never
	// regrow opportunistically.
	specs := []workload.Spec{
		{Class: apps.ClassFS, Index: 0, Nodes: 4, Runtime: 200 * sim.Second, ReqClass: xeon},
		{Class: apps.ClassFS, Index: 1, Nodes: 4, Runtime: 400 * sim.Second, ReqClass: xeon},
		{Class: apps.ClassFS, Index: 2, Nodes: 8, Runtime: 100 * sim.Second,
			Arrival: sim.Second, Flexible: true, ReqClass: xeon},
	}
	for i := 0; i < 12; i++ {
		specs = append(specs, workload.Spec{
			Class: apps.ClassFS, Index: 3 + i, Nodes: 1, Runtime: 150 * sim.Second,
			Arrival: 2 * sim.Second, ReqClass: xeon,
		})
	}
	sys.SubmitAll(specs)
	wide := sys.Jobs()[2]
	started := -1
	sys.Ctl.SubscribeEvents(func(ev slurm.Event) {
		if ev.Kind == slurm.EvStart && ev.JobID == wide.ID && started < 0 {
			started = ev.Nodes
		}
	})
	sys.Run()

	if started != 8 {
		t.Fatalf("wide pinned flexible job started at %d nodes, want its full 8-node width (preferred-size floor)", started)
	}
}

// DVFS speed coupling: the same rigid FS job runs 1/0.6 times longer on
// an efficiency-class machine (P0 speed 0.6) than on the reference Xeon.
func TestEfficiencyClassStretchesRuntime(t *testing.T) {
	spec := workload.Spec{Class: apps.ClassFS, Nodes: 1, Runtime: 100 * sim.Second}
	base := DefaultConfig()
	base.Nodes = 2
	fast := RunWorkload(base, []workload.Spec{spec})

	slowPC := platform.Marenostrum3()
	slowPC.Nodes = 2
	slowPC.Classes = []platform.MachineClass{{Count: 2, Power: energy.EfficiencyProfile()}}
	slow := base
	slow.Platform = &slowPC
	slowRes := RunWorkload(slow, []workload.Spec{spec})

	ratio := slowRes.AvgExec.Seconds() / fast.AvgExec.Seconds()
	prof := energy.EfficiencyProfile()
	want := 1 / prof.SpeedAt(0)
	if math.Abs(ratio-want) > 0.02 {
		t.Fatalf("efficiency-class stretch %.3fx, want ≈%.3fx", ratio, want)
	}
}

// A job admitted below P0 by the power-cap governor observably runs
// longer: with a 400 W cap on a 2-node cluster the single job starts at
// P1 (380 W ≤ 400 < 450 W at P0) and executes 1/0.8 times slower.
func TestPowerCapThrottleStretchesRuntime(t *testing.T) {
	spec := workload.Spec{Class: apps.ClassFS, Nodes: 1, Runtime: 100 * sim.Second}
	base := DefaultConfig()
	base.Nodes = 2
	free := RunWorkload(base, []workload.Spec{spec})

	capped := base
	capped.PowerCapW = 400
	cappedRes := RunWorkload(capped, []workload.Spec{spec})

	ratio := cappedRes.AvgExec.Seconds() / free.AvgExec.Seconds()
	prof := energy.DefaultProfile()
	want := 1 / prof.SpeedAt(1)
	if math.Abs(ratio-want) > 0.02 {
		t.Fatalf("throttled stretch %.3fx, want ≈%.3fx", ratio, want)
	}
	if peak := cappedRes.Power.MaxPowerW(cappedRes.Makespan); peak > 400 {
		t.Fatalf("peak draw %.1f W exceeds the 400 W cap", peak)
	}
}
