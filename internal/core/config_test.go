package core

import (
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// mixedPlatform is a fleet of fast reference-class nodes followed by
// efficiency-class nodes.
func mixedPlatform(fast, slow int) *platform.Config {
	pc := platform.Marenostrum3()
	pc.Nodes = fast + slow
	pc.Classes = []platform.MachineClass{
		{Count: fast, Power: energy.DefaultProfile()},
		{Count: slow, Power: energy.EfficiencyProfile()},
	}
	return &pc
}

// Every policy value × ClassAware completes a workload on a small mixed
// fleet, and every plug-in prices expansions class-aware exactly when
// ClassAware is set: a job holding the whole fast class, asked to grow
// onto free efficiency-class nodes, is granted the growth class-blind
// and declined class-aware.
func TestPolicyClassAwareMatrix(t *testing.T) {
	specs := workload.Generate(workload.Preliminary(8, 1, 5))
	for _, pol := range []struct {
		name   string
		policy Policy
	}{
		{"none", NoPolicy},
		{"algorithm1", Algorithm1},
		{"preferred-only", PreferredOnly},
		{"energy-aware", EnergyAware},
	} {
		for _, classAware := range []bool{false, true} {
			name := pol.name
			if classAware {
				name += "+classaware"
			}
			t.Run(name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Platform = mixedPlatform(4, 16)
				cfg.Policy = pol.policy
				cfg.ClassAware = classAware
				if res := RunWorkload(cfg, specs); res.Jobs != len(specs) || res.Makespan <= 0 {
					t.Fatalf("%d of %d jobs, makespan %v", res.Jobs, len(specs), res.Makespan)
				}

				sys := NewSystem(cfg)
				hold := &slurm.Job{Name: "fast", ReqNodes: 4, TimeLimit: sim.Hour, Flexible: true,
					PrefClass: energy.DefaultProfile().Class}
				hold.Launch = func(j *slurm.Job, _ []*platform.Node) {
					sys.Cluster.K.Spawn(j.Name, func(p *sim.Proc) { p.Sleep(sim.Hour) })
				}
				sys.Ctl.Submit(hold)
				sys.Cluster.K.RunUntil(2 * sim.Second)
				if hold.State != slurm.StateRunning || hold.TouchedSlowClass() {
					t.Fatalf("holder %v, touched slow class %v; want running on the fast class", hold.State, hold.TouchedSlowClass())
				}
				// A dense queue (the energy-aware policy defers to
				// Algorithm 1 there) of jobs no shrink can seat: every
				// plug-in reaches Algorithm 1's line 6 and expands toward
				// the preferred size.
				for i := 0; i < 3; i++ {
					sys.Ctl.Submit(&slurm.Job{Name: "wide", ReqNodes: 20, TimeLimit: sim.Hour})
				}
				d := sys.Ctl.Reconfig(hold, slurm.ResizeRequest{MinProcs: 1, MaxProcs: 8, Preferred: 8, Factor: 2})
				if grew, want := d.Action == slurm.Expand, pol.policy != NoPolicy && !classAware; grew != want {
					t.Fatalf("decision %+v; want growth onto the efficiency class %v", d, want)
				}
			})
		}
	}
}

// Validate rejects each bad configuration with one error, before
// anything is built; NewSystem panics with the same error.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"platform classes overflow", func(c *Config) { c.Platform = mixedPlatform(10, 10); c.Nodes = 12 }, "classes cover"},
		{"class profile without S-states", func(c *Config) {
			c.Platform = mixedPlatform(10, 10)
			c.Platform.Classes[1].Power.SStates = nil
		}, "no S-states"},
		{"base profile without S-states", func(c *Config) {
			pc := mixedPlatform(10, 0)
			pc.Nodes = 20
			pc.Power = energy.DefaultProfile()
			pc.Power.SStates = nil
			c.Platform = pc
		}, "base profile"},
		{"negative ckpt", func(c *Config) { c.CkptEvery = -1 }, "CkptEvery"},
		{"negative mtbf", func(c *Config) { c.Faults = &faults.Config{MTBF: -sim.Second} }, "MTBF"},
		{"bootfail above one", func(c *Config) {
			c.Elastic = &slurm.ElasticConfig{}
			c.Faults = &faults.Config{BootFailP: 1.5}
		}, "BootFailP"},
		{"bootfail without elastic", func(c *Config) { c.Faults = &faults.Config{BootFailP: 0.2} }, "requires Elastic"},
		{"migration on one class", func(c *Config) { c.Migration = &slurm.MigrationConfig{} }, "two machine classes"},
		{"migration on one populated class", func(c *Config) {
			c.Platform = mixedPlatform(0, 20)
			c.Migration = &slurm.MigrationConfig{}
		}, "two machine classes"},
		{"migration without policy", func(c *Config) {
			c.Platform = mixedPlatform(10, 10)
			c.Policy = NoPolicy
			c.Migration = &slurm.MigrationConfig{}
		}, "MigrationPicker"},
		{"negative powercap", func(c *Config) { c.PowerCapW = -100 }, "PowerCapW"},
		{"negative elastic min", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: -1} }, "negative"},
		{"inverted elastic", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: 30, Max: 20} }, "inverted"},
		{"bad ladder", func(c *Config) { c.SleepLadder = []slurm.SleepRung{{AfterIdle: 0}} }, "rung 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error mentioning %q", err, tc.want)
			}
			defer func() {
				if r, ok := recover().(error); !ok || r.Error() != err.Error() {
					t.Fatalf("NewSystem panicked with %v, want %v", r, err)
				}
			}()
			NewSystem(cfg)
		})
	}
}

// The clamps stay: an elastic Min beyond the fleet means the whole
// fleet, a mixed fleet admits migration, and the stock configuration is
// valid.
func TestValidateAccepts(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"elastic min beyond the fleet", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: 1 << 20} }},
		{"elastic max beyond the fleet", func(c *Config) { c.Elastic = &slurm.ElasticConfig{Min: 10, Max: 1 << 20} }},
		{"migration on a mixed fleet", func(c *Config) {
			c.Platform = mixedPlatform(10, 10)
			c.Migration = &slurm.MigrationConfig{}
		}},
		{"migration onto the base class", func(c *Config) {
			pc := mixedPlatform(0, 10)
			pc.Nodes = 20
			c.Platform = pc
			c.Migration = &slurm.MigrationConfig{}
		}},
		{"bootfail under elastic", func(c *Config) {
			c.Elastic = &slurm.ElasticConfig{}
			c.Faults = &faults.Config{BootFailP: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Validate runs inside every NewSystem, so it must stay cheap: no
// platform build, no per-node work, and no allocation beyond the policy
// plug-in, even on a fully featured config.
func TestValidateIsCheap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Platform = mixedPlatform(128, 128)
	cfg.ClassAware = true
	cfg.Thermal = true
	cfg.SleepLadder = slurm.DefaultSleepLadder()
	cfg.PowerCapW = 40000
	cfg.Migration = &slurm.MigrationConfig{}
	cfg.Elastic = &slurm.ElasticConfig{Min: 16}
	cfg.Faults = &faults.Config{MTBF: sim.Hour, BootFailP: 0.1}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Validate allocates %.0f times per call, want only the plug-in", allocs)
	}
}
