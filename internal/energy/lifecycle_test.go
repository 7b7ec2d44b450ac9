package energy

import (
	"testing"

	"repro/internal/sim"
)

// TestBootAndFailureTransitions walks a 2-node accountant through the
// power-off, boot, crash and repair transitions, including every no-op
// guard. After each step it checks the per-node draws against the
// profile and the cluster total against their sum; at the end it checks
// the energy integral against a hand computation and the attribution
// split against the total.
func TestBootAndFailureTransitions(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultProfile()
	p.OffW = 2 // a nonzero standby draw, so Off and Failed are visible
	a := New(k, Uniform(p, 2))
	act := p.ActiveW(0)

	type step struct {
		at    sim.Time
		name  string
		do    func()
		state [2]NodeState
		draw  [2]float64
	}
	wantLat := func(name string, got, want sim.Time) {
		if got != want {
			t.Errorf("%s: latency %v, want %v", name, got, want)
		}
	}
	steps := []step{
		{0, "guards on idle nodes", func() {
			a.FinishBoot(0)
			a.ReleaseBooting(0)
			a.AbortBoot(0)
			a.FinishRepair(0)
			wantLat("StartBoot(idle)", a.StartBoot(0), 0)
		}, [2]NodeState{Idle, Idle}, [2]float64{p.IdleW, p.IdleW}},
		{0, "node 0 off, node 1 runs job 7", func() {
			a.NodeOff(0)
			a.NodeActive(1, 7, 0)
			a.NodeOff(1)  // allocated: no-op
			a.NodeFail(0) // already off: no-op
		}, [2]NodeState{Off, Active}, [2]float64{p.OffW, act}},
		{100 * sim.Second, "boot node 0 from off", func() {
			wantLat("StartBoot(off)", a.StartBoot(0), p.BootDelay())
			wantLat("StartBoot(booting)", a.StartBoot(0), 0)
			a.NodeOff(0) // mid-boot: no-op
		}, [2]NodeState{Booting, Active}, [2]float64{act, act}},
		{250 * sim.Second, "node 0 boots, node 1 crashes", func() {
			a.FinishBoot(0)
			a.FinishBoot(0) // stale completion: no-op
			a.NodeFail(1)
			a.NodeFail(1)     // already failed: no-op
			a.AbortBoot(1)    // not booting: no-op
			a.NodeSleep(1, 0) // dead hardware cannot sleep: no-op
		}, [2]NodeState{Idle, Failed}, [2]float64{p.IdleW, p.OffW}},
		{400 * sim.Second, "node 1 repaired, node 0 sleeps deep", func() {
			a.FinishRepair(1)
			a.FinishRepair(1) // not failed any more: no-op
			a.NodeSleep(0, 1)
		}, [2]NodeState{Sleeping, Idle}, [2]float64{p.SleepW(1), p.IdleW}},
		{500 * sim.Second, "wake node 0, job 8 claims it mid-boot", func() {
			wantLat("StartBoot(sleeping)", a.StartBoot(0), p.WakeLatency(1))
			wantLat("NodeActive(booting)", a.NodeActive(0, 8, 0), 0)
		}, [2]NodeState{Active, Idle}, [2]float64{act, p.IdleW}},
		{510 * sim.Second, "job 8 lets go inside the wake window", func() {
			a.ReleaseBooting(0)
			a.ReleaseBooting(0) // already booting: no-op
		}, [2]NodeState{Booting, Idle}, [2]float64{act, p.IdleW}},
		{530 * sim.Second, "node 0 boots, node 1 off", func() {
			a.FinishBoot(0)
			a.NodeOff(1)
		}, [2]NodeState{Idle, Off}, [2]float64{p.IdleW, p.OffW}},
		{600 * sim.Second, "boot node 1", func() {
			wantLat("StartBoot(off)", a.StartBoot(1), p.BootDelay())
		}, [2]NodeState{Idle, Booting}, [2]float64{p.IdleW, act}},
		{700 * sim.Second, "node 1 boot aborts, node 0 crashes", func() {
			a.AbortBoot(1)
			a.AbortBoot(1) // already off: no-op
			a.NodeFail(0)
		}, [2]NodeState{Failed, Off}, [2]float64{p.OffW, p.OffW}},
	}
	for _, s := range steps {
		k.At(s.at, func() {
			s.do()
			sum := 0.0
			for i := 0; i < 2; i++ {
				if got := a.State(i); got != s.state[i] {
					t.Errorf("%s: node %d state %v, want %v", s.name, i, got, s.state[i])
				}
				if got := a.NodePowerW(i); !almost(got, s.draw[i]) {
					t.Errorf("%s: node %d draws %.1f W, want %.1f W", s.name, i, got, s.draw[i])
				}
				sum += a.NodePowerW(i)
			}
			if got := a.TotalPowerW(); !almost(got, sum) {
				t.Errorf("%s: total draw %.1f W != Σ nodes %.1f W", s.name, got, sum)
			}
		})
	}
	k.At(800*sim.Second, func() {})
	k.Run()

	// Three boots started (off, sleeping, off); the mid-boot claim is
	// not a wake of its own.
	if got := a.Wakes(); got != 3 {
		t.Errorf("%d wakes, want 3", got)
	}
	node0 := p.OffW*100 + act*150 + p.IdleW*150 + p.SleepW(1)*100 +
		act*10 + act*20 + p.IdleW*170 + p.OffW*100
	node1 := act*250 + p.OffW*150 + p.IdleW*130 + p.OffW*70 + act*100 + p.OffW*100
	if got := a.TotalJoules(); !almost(got, node0+node1) {
		t.Errorf("total %.1f J, want hand-computed %.1f J", got, node0+node1)
	}
	if got, want := a.JobJoules(7), act*250; !almost(got, want) {
		t.Errorf("job 7: %.1f J, want %.1f J", got, want)
	}
	if got, want := a.JobJoules(8), act*10; !almost(got, want) {
		t.Errorf("job 8: %.1f J, want %.1f J", got, want)
	}
	if got := a.AttributedJoules() + a.UnattributedJoules(); !almost(got, a.TotalJoules()) {
		t.Errorf("attributed + unattributed %.1f J != total %.1f J", got, a.TotalJoules())
	}
}

func TestBootDelay(t *testing.T) {
	p := DefaultProfile()
	if got := p.BootDelay(); got != p.BootLatency {
		t.Fatalf("boot delay %v, want the set BootLatency %v", got, p.BootLatency)
	}
	p.BootLatency = 0
	if got, want := p.BootDelay(), 2*p.WakeLatency(len(p.SStates)-1); got != want {
		t.Fatalf("fallback boot delay %v, want twice the deepest wake %v", got, want)
	}
}

func TestNodeStateString(t *testing.T) {
	for s, want := range map[NodeState]string{
		Idle: "IDLE", Active: "ACTIVE", Sleeping: "SLEEPING", Off: "OFF",
		Booting: "BOOTING", Failed: "FAILED", NodeState(99): "?",
	} {
		if got := s.String(); got != want {
			t.Errorf("NodeState(%d) = %q, want %q", int(s), got, want)
		}
	}
}
