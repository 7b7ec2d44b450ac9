package slurm

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/platform"
	"repro/internal/sim"
)

// viewPicker records what the MigrateView reports at each decision tick
// and optionally returns a scripted decision.
type viewPicker struct {
	onPick func(v *MigrateView) (MigrationDecision, bool)
}

func (viewPicker) Decide(*QueueView, ResizeRequest) Decision { return Decision{Action: NoAction} }
func (p *viewPicker) PickMigration(v *MigrateView) (MigrationDecision, bool) {
	return p.onPick(v)
}

// The MigrateView must report the cluster the picker actually decides
// over: class inventory in node index order, the job's allocation
// composition and draw, and the configured knobs' defaults.
func TestMigrateViewAccessors(t *testing.T) {
	cl := mixedTestCluster(2, 2)
	fast := energy.DefaultProfile().Class
	slow := energy.EfficiencyProfile().Class
	var checked bool
	p := &viewPicker{}
	cfg := DefaultConfig()
	cfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	cfg.Policy = p
	cfg.Migration = &MigrationConfig{Interval: 30 * sim.Second}
	c := NewController(cl, cfg)
	j := c.Submit(sleeperJob(c, "a", 2, 120*sim.Second))
	c.SetStateBytes(j, 64<<20)
	p.onPick = func(v *MigrateView) (MigrationDecision, bool) {
		if checked {
			return MigrationDecision{}, false
		}
		checked = true
		cands := v.Candidates()
		if len(cands) != 1 || cands[0] != j {
			t.Errorf("candidates %v, want [a]", cands)
		}
		if got := v.Classes(); len(got) != 2 || got[0] != fast || got[1] != slow {
			t.Errorf("classes %v, want [%s %s]", got, fast, slow)
		}
		if got := v.ClassSpeed(fast); got != 1.0 {
			t.Errorf("fast class speed %v, want 1", got)
		}
		if got := v.ClassSpeed(slow); got != energy.EfficiencyProfile().SpeedAt(0) {
			t.Errorf("slow class speed %v", got)
		}
		if got := v.ClassActiveW(slow); got != energy.EfficiencyProfile().ActiveW(0) {
			t.Errorf("slow class draw %v", got)
		}
		if v.ClassSpeed("no-such-class") != 0 || v.ClassActiveW("no-such-class") != 0 {
			t.Error("unknown class must report zero speed and draw")
		}
		if got := v.ClassTotal(fast); got != 2 {
			t.Errorf("fast class total %d, want 2", got)
		}
		// The job holds both fast nodes (index-order placement).
		if got := v.FreeOfClass(fast); got != 0 {
			t.Errorf("free fast nodes %d, want 0", got)
		}
		if got := v.FreeOfClass(slow); got != 2 {
			t.Errorf("free slow nodes %d, want 2", got)
		}
		if got := v.AllocClasses(j); len(got) != 1 || got[0] != fast {
			t.Errorf("alloc classes %v, want [%s]", got, fast)
		}
		if got := v.AllocIn(j, fast); got != 2 {
			t.Errorf("alloc in fast %d, want 2", got)
		}
		if got := v.AllocIn(j, slow); got != 0 {
			t.Errorf("alloc in slow %d, want 0", got)
		}
		if got := v.AllocActiveW(j); got != 2*energy.DefaultProfile().ActiveW(0) {
			t.Errorf("alloc draw %v", got)
		}
		if got := v.JobSpeed(j); got != 1.0 {
			t.Errorf("job speed %v, want 1", got)
		}
		if got := v.RestartNodes(j); got != 2 {
			t.Errorf("restart width %d, want 2", got)
		}
		if v.QueueDepth() != 0 {
			t.Errorf("queue depth %d, want 0", v.QueueDepth())
		}
		if v.Remaining(j) <= 0 {
			t.Errorf("remaining %v, want > 0", v.Remaining(j))
		}
		if v.MoveCost(j, 2) <= 0 {
			t.Errorf("move cost %v, want > 0", v.MoveCost(j, 2))
		}
		if v.Now() == 0 {
			t.Error("decision tick at time zero")
		}
		return MigrationDecision{}, false
	}
	cl.K.Run()
	if !checked {
		t.Fatal("the decision pass never consulted the picker")
	}
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
}

// A full order→checkpoint→requeue→restart cycle: the ordered job gives
// up its fast nodes, restarts pinned to the destination class, and the
// pin is cleared once the restart lands there.
func TestMigrateOrderExecutesAndRestarts(t *testing.T) {
	cl := mixedTestCluster(2, 2)
	slow := energy.EfficiencyProfile().Class
	ordered := false
	p := &viewPicker{}
	cfg := DefaultConfig()
	cfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	cfg.Policy = p
	cfg.Migration = &MigrationConfig{Interval: 30 * sim.Second}
	c := NewController(cl, cfg)

	var restartClasses []string
	j := &Job{Name: "mover", ReqNodes: 2, TimeLimit: 400 * sim.Second}
	j.Launch = func(j *Job, nodes []*platform.Node) {
		if j.Incarnation > 0 {
			for _, nd := range nodes {
				restartClasses = append(restartClasses, nd.Class())
			}
		}
		inc := j.Incarnation
		c.Kernel().Spawn("mover", func(p *sim.Proc) {
			// The app loop skeleton: poll for a migration order at each
			// batch head, hand the job back when one is pending.
			for slept := sim.Time(0); slept < 100*sim.Second; slept += 5 * sim.Second {
				p.Sleep(5 * sim.Second)
				if j.Incarnation != inc || j.State != StateRunning {
					return
				}
				if c.MigrationOrdered(j) {
					c.MigrateRequeue(j)
					return
				}
			}
			c.JobComplete(j)
		})
	}
	c.Submit(j)
	c.SetStateBytes(j, 64<<20)

	p.onPick = func(v *MigrateView) (MigrationDecision, bool) {
		if ordered || len(v.Candidates()) == 0 {
			return MigrationDecision{}, false
		}
		ordered = true
		need := v.RestartNodes(j)
		return MigrationDecision{Job: j, Class: slow, Reason: "consolidate", Cost: v.MoveCost(j, need)}, true
	}
	cl.K.Run()

	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if j.Incarnation != 1 {
		t.Fatalf("incarnation %d, want 1 (exactly one migration)", j.Incarnation)
	}
	if len(restartClasses) != 2 {
		t.Fatalf("restart landed on %d nodes, want 2", len(restartClasses))
	}
	for _, cls := range restartClasses {
		if cls != slow {
			t.Fatalf("restart node class %s, want %s", cls, slow)
		}
	}
	if j.ReqClass != "" {
		t.Fatalf("class pin %q not cleared after the restart", j.ReqClass)
	}
	if c.MigrationOrdered(j) {
		t.Fatal("order still pending after the move")
	}
	stats := c.MigrationStats()
	if stats.Orders != 1 || stats.Migrations != 1 {
		t.Fatalf("stats %+v, want exactly one order and one migration", stats)
	}
	if stats.MigratedS <= 0 || math.IsNaN(stats.MigratedS) {
		t.Fatalf("migrated cost %v, want > 0", stats.MigratedS)
	}
	rec := c.Accounting()
	found := false
	for _, r := range rec {
		if r.Name != "mover" {
			continue
		}
		found = true
		if r.Migrations != 1 {
			t.Fatalf("accounting migrations %d, want 1", r.Migrations)
		}
		if r.MigratedS <= 0 {
			t.Fatalf("accounting migrated_s %v, want > 0", r.MigratedS)
		}
	}
	if !found {
		t.Fatal("no accounting record for the migrated job")
	}
}

// MigrateRequeue must be a no-op for a job that was never ordered, or
// that already left the running state: the app's poll can race a crash
// requeue, and the late call must not corrupt anything.
func TestMigrateRequeueIgnoresUnordered(t *testing.T) {
	cl := mixedTestCluster(2, 2)
	p := &viewPicker{onPick: func(*MigrateView) (MigrationDecision, bool) {
		return MigrationDecision{}, false
	}}
	cfg := DefaultConfig()
	cfg.Energy = energy.New(cl.K, cl.PowerProfiles())
	cfg.Policy = p
	cfg.Migration = &MigrationConfig{Interval: 30 * sim.Second}
	c := NewController(cl, cfg)
	j := c.Submit(sleeperJob(c, "plain", 1, 10*sim.Second))
	cl.K.At(5*sim.Second, func() { c.MigrateRequeue(j) }) // never ordered
	cl.K.Run()
	if j.State != StateCompleted {
		t.Fatalf("job state %v", j.State)
	}
	if j.Incarnation != 0 {
		t.Fatalf("incarnation %d, want 0 (no move happened)", j.Incarnation)
	}
	if stats := c.MigrationStats(); stats.Orders != 0 || stats.Migrations != 0 {
		t.Fatalf("stats %+v, want zeroes", stats)
	}
}
